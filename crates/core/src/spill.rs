//! Reduce-side spill: sorted runs of frame entries
//! (`reduce_state.rs::Groups::run`) on the node-local disk, read back as
//! sources of the one group merge, [`hamr_codec::merge`], with the
//! in-memory remainder as one more run — Hadoop's external sort, but
//! only on overflow. A spilled run is read 64 KiB at a time, so the
//! modeled disk is paid as the merge goes; a run that ends inside an
//! entry, or holds a malformed one, fails the fire with
//! `DiskError::Truncated` at the entry's start, without reading on.

use hamr_codec::merge::{merge, Source};
use hamr_simdisk::{Disk, DiskError, FileReader};

/// Bytes a spilled run is read back in.
const CHUNK: usize = 64 << 10;

/// One sorted run as a merge source: a spilled run read back a chunk at
/// a time, or the in-memory remainder, whole.
pub(crate) struct Run {
    /// The run's file, for the error that names a torn one.
    pub(crate) name: String,
    file: Option<FileReader>,
    buf: Vec<u8>,
    /// Where the merge's window starts in `buf`.
    pos: usize,
}

impl Run {
    pub(crate) fn open(disk: &Disk, name: &str) -> Result<Self, DiskError> {
        let file = Some(disk.open(name)?);
        let name = name.to_string();
        Ok(Run {
            name,
            file,
            buf: Vec::new(),
            pos: 0,
        })
    }

    /// A run already in memory.
    pub(crate) fn memory(buf: Vec<u8>) -> Self {
        Run {
            name: String::new(),
            file: None,
            buf,
            pos: 0,
        }
    }
}

impl Source for Run {
    fn window(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }

    fn remaining(&self) -> usize {
        self.file.as_ref().map_or(0, FileReader::remaining)
    }

    /// Drop what the merge is done with and read the next chunk.
    fn fill(&mut self) {
        let Some(file) = &mut self.file else {
            return;
        };
        self.buf.drain(..self.pos);
        self.pos = 0;
        let old = self.buf.len();
        self.buf.resize(old + CHUNK.min(file.remaining()), 0);
        let n = file.read(&mut self.buf[old..]);
        self.buf.truncate(old + n);
    }
}

/// Merge `runs`, handing `group` each key once with all its values,
/// borrowed: run by run, in each run's order. Fails on a run that ends
/// inside an entry or holds a malformed one.
pub(crate) fn merge_runs(
    runs: &mut [Run],
    mut group: impl FnMut(&[u8], &mut dyn Iterator<Item = &[u8]>),
) -> Result<(), DiskError> {
    merge(runs, None, |_, key, values| group(key, values)).map_err(|torn| DiskError::Truncated {
        file: runs[torn.source].name.clone(),
        offset: torn.offset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamr_simdisk::DiskConfig;

    type Groups = Vec<(Vec<u8>, Vec<Vec<u8>>)>;

    /// `entries`, sorted, as a run's bytes.
    fn run_of<K: AsRef<[u8]> + Ord, V: AsRef<[u8]> + Ord>(mut entries: Vec<(K, V)>) -> Vec<u8> {
        entries.sort();
        let mut run = Vec::new();
        for (k, v) in &entries {
            hamr_codec::write_entry(&mut run, k.as_ref(), v.as_ref());
        }
        run
    }

    /// A disk holding `entries`, sorted, as run `name`.
    fn spill<K: AsRef<[u8]> + Ord, V: AsRef<[u8]> + Ord>(name: &str, entries: Vec<(K, V)>) -> Disk {
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all(name, &run_of(entries)).unwrap();
        disk
    }

    /// Every group `runs` merge into, owned, and how the merge ended.
    fn groups(mut runs: Vec<Run>) -> (Groups, Result<(), DiskError>) {
        let mut out = Vec::new();
        let end = merge_runs(&mut runs, |k, vs| {
            out.push((k.to_vec(), vs.map(<[u8]>::to_vec).collect()));
        });
        (out, end)
    }

    /// The groups of a merge that must succeed.
    fn merged(runs: Vec<Run>) -> Groups {
        let (out, end) = groups(runs);
        end.unwrap();
        out
    }

    fn g(key: &str, values: &[&str]) -> (Vec<u8>, Vec<Vec<u8>>) {
        let values = values.iter().map(|v| v.as_bytes().to_vec()).collect();
        (key.as_bytes().to_vec(), values)
    }

    #[test]
    fn run_roundtrip_in_key_order() {
        let disk = spill("run0", vec![("c", "3"), ("a", "1"), ("b", "2")]);
        let got = merged(vec![Run::open(&disk, "run0").unwrap()]);
        assert_eq!(got, vec![g("a", &["1"]), g("b", &["2"]), g("c", &["3"])]);
    }

    #[test]
    fn empty_run_yields_nothing() {
        let disk = spill::<&str, &str>("run0", vec![]);
        assert!(merged(vec![Run::open(&disk, "run0").unwrap()]).is_empty());
    }

    /// 40 KB values force refills, and a 200 KB group grows the window
    /// past one read; the disk still reads the run 64 KiB at a time.
    #[test]
    fn large_run_spans_read_chunks() {
        let big = vec![7u8; 40 << 10];
        let entries = (0..16u64).map(|i| (format!("key{:04}", i.min(11)), big.clone()));
        let disk = spill("big", entries.collect());
        let got = merged(vec![Run::open(&disk, "big").unwrap()]);
        assert_eq!(got.len(), 12);
        assert_eq!(got[11].1.len(), 5);
        assert!(got
            .iter()
            .all(|(k, vs)| k.starts_with(b"key") && vs.iter().all(|v| *v == big)));
        let (m, size) = (disk.metrics(), disk.len("big").unwrap());
        assert_eq!(
            (m.bytes_read, m.read_ops),
            (size as u64, size.div_ceil(CHUNK) as u64)
        );
    }

    /// Two spilled runs and the in-memory remainder: each key once, its
    /// values run by run and in each run's order.
    #[test]
    fn merge_groups_across_streams() {
        let disk = spill("r1", vec![("a", "1"), ("b", "2")]);
        let mut runs = vec![Run::open(&disk, "r1").unwrap()];
        let disk = spill("r2", vec![("a", "3"), ("c", "4")]);
        runs.push(Run::open(&disk, "r2").unwrap());
        runs.push(Run::memory(run_of(vec![("b", "5"), ("a", "6")])));
        let want = vec![
            g("a", &["1", "3", "6"]),
            g("b", &["2", "5"]),
            g("c", &["4"]),
        ];
        assert_eq!(merged(runs), want);
    }

    #[test]
    fn merge_of_empty_streams_is_empty() {
        assert!(merged(vec![Run::memory(Vec::new())]).is_empty());
    }

    #[test]
    fn merge_single_memory_stream_groups_duplicates() {
        let got = merged(vec![Run::memory(run_of(vec![
            ("x", "1"),
            ("x", "2"),
            ("x", "3"),
        ]))]);
        assert_eq!(got, vec![g("x", &["1", "2", "3"])]);
    }

    #[test]
    fn binary_safe_keys_and_values() {
        let disk = spill(
            "bin",
            vec![(vec![0u8, 0, 1], vec![0xffu8, 0x80]), (vec![0], vec![])],
        );
        let got = merged(vec![Run::open(&disk, "bin").unwrap()]);
        let want = vec![
            (vec![0], vec![vec![]]),
            (vec![0, 0, 1], vec![vec![0xff, 0x80]]),
        ];
        assert_eq!(got, want);
    }

    /// A run cut short — here by three bytes, inside its last entry —
    /// fails the merge with the run's name and the entry's offset; the
    /// groups known whole before the cut are still merged, and the
    /// merge fails instead of yielding a short group.
    #[test]
    fn a_truncated_run_is_an_error_not_an_end() {
        let run = run_of(vec![("a", "1"), ("b", "22"), ("c", "333")]);
        let disk = spill::<&str, &str>("cut", vec![]);
        disk.delete("cut");
        disk.write_all("cut", &run[..run.len() - 3]).unwrap();
        let (got, end) = groups(vec![Run::open(&disk, "cut").unwrap()]);
        // `b` is known whole only once the entry after it reads.
        assert_eq!(got, vec![g("a", &["1"])]);
        let file = "cut".to_string();
        assert_eq!(end, Err(DiskError::Truncated { file, offset: 9 }));
    }

    /// A malformed length in the middle of a run fails the merge at the
    /// entry's start as soon as its chunk is read: an over-long varint,
    /// or a length past the end of the run. The disk reads two of the
    /// run's five chunks, not the whole run.
    #[test]
    fn a_malformed_entry_fails_before_the_rest_of_the_run_is_read() {
        let run = run_of(
            (0..300)
                .map(|i| (format!("key{i:03}"), vec![1u8; 1000]))
                .collect(),
        );
        let corruptions: [&[u8]; 2] = [&[0xff; 10], &[0xff, 0xff, 0x7f]];
        for bad in corruptions {
            // Entry 100's klen: each entry is klen, 6 key bytes, a 2-byte
            // vlen and the value.
            let at = 100 * (1 + 6 + 2 + 1000);
            let mut bytes = run.clone();
            bytes[at..at + bad.len()].copy_from_slice(bad);
            let disk = Disk::new(DiskConfig::instant());
            disk.write_all("bad", &bytes).unwrap();
            let (got, end) = groups(vec![Run::open(&disk, "bad").unwrap()]);
            assert_eq!(got.len(), 99);
            let (file, offset) = ("bad".to_string(), at as u64);
            assert_eq!(end, Err(DiskError::Truncated { file, offset }));
            let read = disk.metrics().bytes_read;
            assert_eq!(
                read,
                2 * CHUNK as u64,
                "{bad:?}: read {read} of {}",
                run.len()
            );
        }
    }
}
