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
    name: String,
    file: FileReader,
    buf: Vec<u8>,
    pos: usize,
    /// Run offset of `buf[0]`.
    base: usize,
}

const READ_CHUNK: usize = 64 << 10;

impl RunReader {
    pub(crate) fn open(disk: &Disk, name: &str) -> Result<Self, DiskError> {
        Ok(RunReader {
            name: name.to_string(),
            file: disk.open(name)?,
            buf: Vec::new(),
            pos: 0,
            base: 0,
        })
    }

    /// Next entry in key order, `None` at the end of the run, or an
    /// error when the run ends inside an entry: a truncated run is not
    /// a shorter one.
    pub(crate) fn next_entry(&mut self) -> Result<Option<(Bytes, Bytes)>, DiskError> {
        loop {
            if let Some((key, value, len)) = parse_entry(&self.buf[self.pos..]) {
                let entry = (Bytes::copy_from_slice(key), Bytes::copy_from_slice(value));
                self.pos += len;
                return Ok(Some(entry));
            }
            // What is buffered is not a whole entry: read on, if the
            // run has more.
            if self.file.remaining() == 0 {
                if self.pos == self.buf.len() {
                    return Ok(None);
                }
                let offset = (self.base + self.pos) as u64;
                let file = self.name.clone();
                return Err(DiskError::Truncated { file, offset });
            }
            self.buf.drain(..self.pos);
            (self.base, self.pos) = (self.base + self.pos, 0);
            let old = self.buf.len();
            self.buf
                .resize(old + READ_CHUNK.min(self.file.remaining()), 0);
            let n = self.file.read(&mut self.buf[old..]);
            self.buf.truncate(old + n);
        }
    }
}

/// The entry at the front of `bytes` — its key, its value and its
/// length — or `None` if `bytes` ends inside it.
fn parse_entry(mut bytes: &[u8]) -> Option<(&[u8], &[u8], usize)> {
    let whole = bytes.len();
    let klen = read_varint(&mut bytes).ok()? as usize;
    let key = bytes.get(..klen)?;
    bytes = &bytes[klen..];
    let vlen = read_varint(&mut bytes).ok()? as usize;
    let value = bytes.get(..vlen)?;
    Some((key, value, whole - bytes.len() + vlen))
}

/// A source of key-sorted entries.
pub(crate) enum SortedStream {
    Run(RunReader),
    Memory(std::vec::IntoIter<(Bytes, Bytes)>),
}

impl SortedStream {
    fn next(&mut self) -> Result<Option<(Bytes, Bytes)>, DiskError> {
        match self {
            SortedStream::Run(r) => r.next_entry(),
            SortedStream::Memory(it) => Ok(it.next()),
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
    pub(crate) fn new(streams: Vec<SortedStream>) -> Result<Self, DiskError> {
        let heap = BinaryHeap::with_capacity(streams.len());
        let mut merge = GroupedMerge { streams, heap };
        (0..merge.streams.len()).try_for_each(|i| merge.advance(i))?;
        Ok(merge)
    }

    /// Put stream `i`'s next entry, if any, on the heap.
    fn advance(&mut self, i: usize) -> Result<(), DiskError> {
        if let Some((k, v)) = self.streams[i].next()? {
            self.heap.push(Reverse((k, i, v)));
        }
        Ok(())
    }

    /// Next `(key, values)` group in key order.
    pub(crate) fn next_group(&mut self) -> Result<Option<(Bytes, Vec<Bytes>)>, DiskError> {
        let Some(Reverse((key, idx, value))) = self.heap.pop() else {
            return Ok(None);
        };
        let mut values = vec![value];
        self.advance(idx)?;
        while let Some(Reverse((k, _, _))) = self.heap.peek() {
            if *k != key {
                break;
            }
            let Reverse((_, i, v)) = self.heap.pop().expect("peeked");
            values.push(v);
            self.advance(i)?;
        }
        Ok(Some((key, values)))
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
        assert_eq!(r.next_entry().unwrap().unwrap(), (b("a"), b("1")));
        assert_eq!(r.next_entry().unwrap().unwrap(), (b("b"), b("2")));
        assert_eq!(r.next_entry().unwrap().unwrap(), (b("c"), b("3")));
        assert!(r.next_entry().unwrap().is_none());
    }

    #[test]
    fn empty_run_yields_nothing() {
        let disk = Disk::new(DiskConfig::instant());
        write_run(&disk, "run0", Vec::<(Bytes, Bytes)>::new()).unwrap();
        let mut r = RunReader::open(&disk, "run0").unwrap();
        assert!(r.next_entry().unwrap().is_none());
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
        while let Some((k, v)) = r.next_entry().unwrap() {
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
        let mut merge = GroupedMerge::new(streams).unwrap();
        let (k, mut vs) = merge.next_group().unwrap().unwrap();
        assert_eq!(k, b("a"));
        vs.sort();
        assert_eq!(vs, vec![b("1"), b("3"), b("6")]);
        let (k, mut vs) = merge.next_group().unwrap().unwrap();
        assert_eq!(k, b("b"));
        vs.sort();
        assert_eq!(vs, vec![b("2"), b("5")]);
        let (k, vs) = merge.next_group().unwrap().unwrap();
        assert_eq!(k, b("c"));
        assert_eq!(vs, vec![b("4")]);
        assert!(merge.next_group().unwrap().is_none());
    }

    #[test]
    fn merge_of_empty_streams_is_empty() {
        let mut merge = GroupedMerge::new(vec![SortedStream::from_entries(vec![])]).unwrap();
        assert!(merge.next_group().unwrap().is_none());
    }

    #[test]
    fn merge_single_memory_stream_groups_duplicates() {
        let entries = vec![(b("x"), b("1")), (b("x"), b("2")), (b("x"), b("3"))];
        let mut merge = GroupedMerge::new(vec![SortedStream::from_entries(entries)]).unwrap();
        let (k, vs) = merge.next_group().unwrap().unwrap();
        assert_eq!(k, b("x"));
        assert_eq!(vs.len(), 3);
        assert!(merge.next_group().unwrap().is_none());
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
            r.next_entry().unwrap().unwrap(),
            (Bytes::from_static(&[0]), Bytes::from_static(&[]))
        );
        assert_eq!(
            r.next_entry().unwrap().unwrap(),
            (
                Bytes::from_static(&[0, 0, 1]),
                Bytes::from_static(&[0xff, 0x80])
            )
        );
    }

    /// A run cut short — here by three bytes, inside its last entry —
    /// fails the read with the run's name and the entry's offset; every
    /// entry before the cut still reads back, and a merge over the run
    /// fails instead of yielding a short group.
    #[test]
    fn a_truncated_run_is_an_error_not_an_end() {
        let disk = Disk::new(DiskConfig::instant());
        let entries = vec![(b("a"), b("1")), (b("b"), b("22")), (b("c"), b("333"))];
        write_run(&disk, "cut", entries).unwrap();
        let whole = disk.read_all("cut").unwrap();
        disk.delete("cut");
        disk.write_all("cut", &whole[..whole.len() - 3]).unwrap();
        let mut r = RunReader::open(&disk, "cut").unwrap();
        assert_eq!(r.next_entry().unwrap(), Some((b("a"), b("1"))));
        assert_eq!(r.next_entry().unwrap(), Some((b("b"), b("22"))));
        let cut = DiskError::Truncated {
            file: "cut".into(),
            offset: 9,
        };
        assert_eq!(r.next_entry(), Err(cut.clone()));
        let run = SortedStream::Run(RunReader::open(&disk, "cut").unwrap());
        let mut merge = GroupedMerge::new(vec![run]).unwrap();
        assert_eq!(merge.next_group().unwrap().unwrap().0, b("a"));
        assert_eq!(merge.next_group(), Err(cut));
    }
}
