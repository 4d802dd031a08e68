//! Reduce-side spill: sorted runs on the node-local disk and a grouped
//! k-way merge to iterate them back.
//!
//! When a reduce flowlet's collected groups exceed the node's memory
//! budget, a shard of its state is flattened to `(key, value)` entries,
//! sorted by key, and written as one *run*. At fire time the in-memory
//! remainder (also sorted) is merged with every run, yielding each key
//! exactly once with all its values — the same external-sort shape
//! Hadoop reducers use, but only on overflow instead of always.

use bytes::Bytes;
use hamr_codec::{read_varint, write_varint};
use hamr_simdisk::{Disk, DiskError, FileReader};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sort entries by key and write them to `disk` as one run file.
/// Returns the byte size of the run.
pub(crate) fn write_run<K: AsRef<[u8]>, V: AsRef<[u8]>>(
    disk: &Disk,
    name: &str,
    mut entries: Vec<(K, V)>,
) -> Result<usize, DiskError> {
    entries.sort_unstable_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
    let mut writer = disk.create(name)?;
    let mut buf = Vec::with_capacity(64 << 10);
    for (k, v) in &entries {
        let (k, v) = (k.as_ref(), v.as_ref());
        write_varint(k.len() as u64, &mut buf);
        buf.extend_from_slice(k);
        write_varint(v.len() as u64, &mut buf);
        buf.extend_from_slice(v);
        if buf.len() >= (64 << 10) {
            writer.write(&buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        writer.write(&buf);
    }
    Ok(writer.seal())
}

/// Streaming reader over one sorted run.
pub(crate) struct RunReader {
    file: FileReader,
    buf: Vec<u8>,
    pos: usize,
}

const READ_CHUNK: usize = 64 << 10;

impl RunReader {
    pub(crate) fn open(disk: &Disk, name: &str) -> Result<Self, DiskError> {
        Ok(RunReader {
            file: disk.open(name)?,
            buf: Vec::new(),
            pos: 0,
        })
    }

    /// Ensure at least `want` unread bytes are buffered (or EOF).
    fn fill(&mut self, want: usize) {
        while self.buf.len() - self.pos < want {
            if self.file.remaining() == 0 {
                return;
            }
            // Compact consumed prefix before growing.
            if self.pos > 0 {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            let old_len = self.buf.len();
            let to_read = READ_CHUNK.min(self.file.remaining());
            self.buf.resize(old_len + to_read, 0);
            let n = self.file.read(&mut self.buf[old_len..]);
            self.buf.truncate(old_len + n);
            if n == 0 {
                return;
            }
        }
    }

    fn read_varint(&mut self) -> Option<u64> {
        self.fill(10);
        if self.pos >= self.buf.len() {
            return None;
        }
        let mut slice = &self.buf[self.pos..];
        let before = slice.len();
        let v = read_varint(&mut slice).ok()?;
        self.pos += before - slice.len();
        Some(v)
    }

    fn read_bytes(&mut self, len: usize) -> Option<Bytes> {
        self.fill(len);
        if self.buf.len() - self.pos < len {
            return None;
        }
        let out = Bytes::copy_from_slice(&self.buf[self.pos..self.pos + len]);
        self.pos += len;
        Some(out)
    }

    /// Next entry in key order, or `None` at end of run.
    pub(crate) fn next_entry(&mut self) -> Option<(Bytes, Bytes)> {
        let klen = self.read_varint()? as usize;
        let key = self.read_bytes(klen)?;
        let vlen = self.read_varint()? as usize;
        let value = self.read_bytes(vlen)?;
        Some((key, value))
    }
}

/// A source of key-sorted entries.
pub(crate) enum SortedStream {
    Run(RunReader),
    Memory(std::vec::IntoIter<(Bytes, Bytes)>),
}

impl SortedStream {
    fn next(&mut self) -> Option<(Bytes, Bytes)> {
        match self {
            SortedStream::Run(r) => r.next_entry(),
            SortedStream::Memory(it) => it.next(),
        }
    }

    /// A memory stream over entries (sorted here for safety).
    pub(crate) fn from_entries(mut entries: Vec<(Bytes, Bytes)>) -> Self {
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        SortedStream::Memory(entries.into_iter())
    }
}

/// Merges sorted streams, yielding each key once with all its values.
pub(crate) struct GroupedMerge {
    streams: Vec<SortedStream>,
    heap: BinaryHeap<Reverse<(Bytes, usize, Bytes)>>,
}

impl GroupedMerge {
    pub(crate) fn new(mut streams: Vec<SortedStream>) -> Self {
        let mut heap = BinaryHeap::with_capacity(streams.len());
        for (i, s) in streams.iter_mut().enumerate() {
            if let Some((k, v)) = s.next() {
                heap.push(Reverse((k, i, v)));
            }
        }
        GroupedMerge { streams, heap }
    }

    /// Next `(key, values)` group in key order.
    pub(crate) fn next_group(&mut self) -> Option<(Bytes, Vec<Bytes>)> {
        let Reverse((key, idx, value)) = self.heap.pop()?;
        let mut values = vec![value];
        if let Some((k, v)) = self.streams[idx].next() {
            self.heap.push(Reverse((k, idx, v)));
        }
        while let Some(Reverse((k, _, _))) = self.heap.peek() {
            if *k != key {
                break;
            }
            let Reverse((_, i, v)) = self.heap.pop().expect("peeked");
            values.push(v);
            if let Some((k2, v2)) = self.streams[i].next() {
                self.heap.push(Reverse((k2, i, v2)));
            }
        }
        Some((key, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamr_simdisk::DiskConfig;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn run_roundtrip_in_key_order() {
        let disk = Disk::new(DiskConfig::instant());
        let entries = vec![(b("c"), b("3")), (b("a"), b("1")), (b("b"), b("2"))];
        write_run(&disk, "run0", entries).unwrap();
        let mut r = RunReader::open(&disk, "run0").unwrap();
        assert_eq!(r.next_entry().unwrap(), (b("a"), b("1")));
        assert_eq!(r.next_entry().unwrap(), (b("b"), b("2")));
        assert_eq!(r.next_entry().unwrap(), (b("c"), b("3")));
        assert!(r.next_entry().is_none());
    }

    #[test]
    fn empty_run_yields_nothing() {
        let disk = Disk::new(DiskConfig::instant());
        write_run(&disk, "run0", Vec::<(Bytes, Bytes)>::new()).unwrap();
        let mut r = RunReader::open(&disk, "run0").unwrap();
        assert!(r.next_entry().is_none());
    }

    #[test]
    fn large_run_spans_read_chunks() {
        let disk = Disk::new(DiskConfig::instant());
        let big_value = vec![7u8; 40 << 10]; // 40 KB values force refills
        let entries: Vec<_> = (0..16u64)
            .map(|i| {
                (
                    Bytes::from(format!("key{i:04}")),
                    Bytes::from(big_value.clone()),
                )
            })
            .collect();
        write_run(&disk, "big", entries).unwrap();
        let mut r = RunReader::open(&disk, "big").unwrap();
        let mut count = 0;
        while let Some((k, v)) = r.next_entry() {
            assert!(k.starts_with(b"key"));
            assert_eq!(v.len(), 40 << 10);
            count += 1;
        }
        assert_eq!(count, 16);
    }

    #[test]
    fn merge_groups_across_streams() {
        let disk = Disk::new(DiskConfig::instant());
        write_run(&disk, "r1", vec![(b("a"), b("1")), (b("b"), b("2"))]).unwrap();
        write_run(&disk, "r2", vec![(b("a"), b("3")), (b("c"), b("4"))]).unwrap();
        let mem = SortedStream::from_entries(vec![(b("b"), b("5")), (b("a"), b("6"))]);
        let streams = vec![
            SortedStream::Run(RunReader::open(&disk, "r1").unwrap()),
            SortedStream::Run(RunReader::open(&disk, "r2").unwrap()),
            mem,
        ];
        let mut merge = GroupedMerge::new(streams);
        let (k, mut vs) = merge.next_group().unwrap();
        assert_eq!(k, b("a"));
        vs.sort();
        assert_eq!(vs, vec![b("1"), b("3"), b("6")]);
        let (k, mut vs) = merge.next_group().unwrap();
        assert_eq!(k, b("b"));
        vs.sort();
        assert_eq!(vs, vec![b("2"), b("5")]);
        let (k, vs) = merge.next_group().unwrap();
        assert_eq!(k, b("c"));
        assert_eq!(vs, vec![b("4")]);
        assert!(merge.next_group().is_none());
    }

    #[test]
    fn merge_of_empty_streams_is_empty() {
        let mut merge = GroupedMerge::new(vec![SortedStream::from_entries(vec![])]);
        assert!(merge.next_group().is_none());
    }

    #[test]
    fn merge_single_memory_stream_groups_duplicates() {
        let entries = vec![(b("x"), b("1")), (b("x"), b("2")), (b("x"), b("3"))];
        let mut merge = GroupedMerge::new(vec![SortedStream::from_entries(entries)]);
        let (k, vs) = merge.next_group().unwrap();
        assert_eq!(k, b("x"));
        assert_eq!(vs.len(), 3);
        assert!(merge.next_group().is_none());
    }

    #[test]
    fn binary_safe_keys_and_values() {
        let disk = Disk::new(DiskConfig::instant());
        let entries = vec![
            (
                Bytes::from_static(&[0, 0, 1]),
                Bytes::from_static(&[0xff, 0x80]),
            ),
            (Bytes::from_static(&[0]), Bytes::from_static(&[])),
        ];
        write_run(&disk, "bin", entries).unwrap();
        let mut r = RunReader::open(&disk, "bin").unwrap();
        assert_eq!(
            r.next_entry().unwrap(),
            (Bytes::from_static(&[0]), Bytes::from_static(&[]))
        );
        assert_eq!(
            r.next_entry().unwrap(),
            (
                Bytes::from_static(&[0, 0, 1]),
                Bytes::from_static(&[0xff, 0x80])
            )
        );
    }
}
