//! Property tests for the one group merge, `hamr_codec::merge`, against
//! a `BTreeMap` model: 0–8 key-sorted sources, the empty key, keys that
//! are prefixes of others and long keys that share their first 16
//! bytes, plain entries and entries behind a varint tag (the baseline's
//! spill runs), each source either a whole slice or streamed in chunks
//! of 1 byte to 64 KiB — so that groups span many refills. Each key
//! comes out once, its values source by source and in each source's
//! order; a torn source fails the merge with its index and the torn
//! entry's offset; and arbitrary bytes never panic it.

use hamr_codec::merge::{merge, Prefix, Source, Torn};
use hamr_codec::{read_entry, read_varint, write_entry, write_varint};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A source streamed `chunk` bytes at a time, like a spilled run.
struct Chunked {
    data: Vec<u8>,
    read: usize,
    buf: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl Chunked {
    fn new(data: Vec<u8>, chunk: usize) -> Self {
        Chunked {
            data,
            read: 0,
            buf: Vec::new(),
            pos: 0,
            chunk,
        }
    }
}

impl Source for Chunked {
    fn window(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.read
    }

    fn fill(&mut self) {
        assert!(self.remaining() > 0, "filled at the end");
        self.buf.drain(..self.pos);
        self.pos = 0;
        let end = self.data.len().min(self.read + self.chunk);
        self.buf.extend_from_slice(&self.data[self.read..end]);
        self.read = end;
    }
}

/// Key `id` is one of 30: the 15 strings over `{0, b'b'}` of length 0
/// to 3 — the empty key, keys that are prefixes of others, keys that
/// differ only in trailing zeros — and the same 15 behind the 16 bytes
/// `a_longer_key_16\0`, which share their first 16 bytes.
fn key_of(id: u8) -> Vec<u8> {
    let (mut n, mut len) = (u32::from(id % 15), 0);
    while n >= 1 << len {
        n -= 1 << len;
        len += 1;
    }
    let short = (0..len).map(|bit| if n >> bit & 1 == 0 { 0 } else { b'b' });
    let long: &[u8] = if id < 15 { b"" } else { b"a_longer_key_16\0" };
    long.iter().copied().chain(short).collect()
}

type Merged = Vec<((u64, Vec<u8>), Vec<Vec<u8>>)>;

/// Merge `sources` (whole slices, or streamed `chunk` bytes at a time
/// when `chunk` is set), each record behind a varint tag when `tagged`.
fn run(sources: &[Vec<u8>], tagged: bool, chunk: Option<usize>) -> (Merged, Result<(), Torn>) {
    let mut out = Vec::new();
    let tag: Option<Prefix> = tagged.then_some(read_varint);
    let mut group = |p: u64, key: &[u8], values: &mut dyn ExactSizeIterator<Item = &[u8]>| {
        let len = values.len();
        let values: Vec<Vec<u8>> = values.map(<[u8]>::to_vec).collect();
        assert_eq!(len, values.len(), "len() before the values");
        out.push(((p, key.to_vec()), values));
    };
    let end = match chunk {
        None => {
            let mut slices: Vec<&[u8]> = sources.iter().map(Vec::as_slice).collect();
            merge(&mut slices, tag, |p, k, vs| group(p, k, vs))
        }
        Some(chunk) => {
            let mut streams: Vec<Chunked> = sources
                .iter()
                .map(|s| Chunked::new(s.clone(), chunk))
                .collect();
            merge(&mut streams, tag, |p, k, vs| group(p, k, vs))
        }
    };
    (out, end)
}

/// One source's records: `(tag, key id, value length)`, sorted by
/// `(tag, key)` and encoded, with each record's start offset.
fn encode(records: &[(u64, u8, usize)], source: usize, tagged: bool) -> (Vec<u8>, Vec<usize>) {
    let mut records: Vec<_> = records
        .iter()
        .enumerate()
        .map(|(i, &(p, id, vlen))| (if tagged { p } else { 0 }, key_of(id), i, vlen))
        .collect();
    records.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let (mut bytes, mut starts) = (Vec::new(), Vec::new());
    for (p, key, i, vlen) in records {
        starts.push(bytes.len());
        if tagged {
            write_varint(p, &mut bytes);
        }
        write_entry(&mut bytes, &key, &value(source, i, vlen));
    }
    (bytes, starts)
}

/// A value naming its source and its place there, padded to `vlen`.
fn value(source: usize, i: usize, vlen: usize) -> Vec<u8> {
    let mut v = format!("{source}.{i}.").into_bytes();
    v.resize(v.len() + vlen, b'.');
    v
}

fn sources_strategy() -> impl Strategy<Value = Vec<Vec<(u64, u8, usize)>>> {
    let vlen = prop::sample::select(vec![0usize, 1, 3, 40, 700]);
    let record = (0u64..3, 0u8..30, vlen);
    prop::collection::vec(prop::collection::vec(record, 0..30), 0..=8)
}

fn chunk_strategy() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 2, 3, 7, 64, 1000, 4096, 65536])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each `(tag, key)` once, in order, with its values source by
    /// source and in each source's order — the `BTreeMap` model fed
    /// source after source — whether the sources are slices or
    /// streamed.
    #[test]
    fn merge_matches_a_btreemap(
        sources in sources_strategy(),
        tagged: bool,
        chunk in chunk_strategy(),
    ) {
        let encoded: Vec<Vec<u8>> = sources
            .iter()
            .enumerate()
            .map(|(s, records)| encode(records, s, tagged).0)
            .collect();
        let mut model: BTreeMap<(u64, Vec<u8>), Vec<Vec<u8>>> = BTreeMap::new();
        for bytes in &encoded {
            let mut input = bytes.as_slice();
            loop {
                let p = if input.is_empty() || !tagged { 0 } else { read_varint(&mut input).unwrap() };
                let Some((k, v)) = read_entry(&mut input).unwrap() else { break };
                model.entry((p, k.to_vec())).or_default().push(v.to_vec());
            }
        }
        let want: Merged = model.into_iter().collect();
        for chunk in [None, Some(chunk)] {
            let (got, end) = run(&encoded, tagged, chunk);
            prop_assert_eq!(end, Ok(()));
            prop_assert_eq!(&got, &want, "chunk {:?}", chunk);
        }
    }

    /// A source cut inside one of its records fails the merge with the
    /// source's index and the record's offset, slices and streams alike.
    #[test]
    fn a_torn_source_fails_with_its_index_and_offset(
        sources in sources_strategy(),
        tagged: bool,
        chunk in chunk_strategy(),
        pick: u64,
        cut: u64,
    ) {
        let mut encoded = Vec::new();
        let mut starts = Vec::new();
        for (s, records) in sources.iter().enumerate() {
            let (bytes, at) = encode(records, s, tagged);
            encoded.push(bytes);
            starts.push(at);
        }
        let torn: Vec<usize> = (0..encoded.len()).filter(|&s| !starts[s].is_empty()).collect();
        if torn.is_empty() {
            return Ok(());
        }
        let source = torn[(pick % torn.len() as u64) as usize];
        let record = (cut % starts[source].len() as u64) as usize;
        let start = starts[source][record];
        let end = starts[source].get(record + 1).copied().unwrap_or(encoded[source].len());
        // Keep some of the record's bytes, never all of them.
        let keep = 1 + (cut / 7) as usize % (end - start - 1);
        encoded[source].truncate(start + keep);
        let want = Err(Torn { source, offset: start as u64 });
        for chunk in [None, Some(chunk)] {
            let (_, end) = run(&encoded, tagged, chunk);
            prop_assert_eq!(end, want, "chunk {:?}", chunk);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// One source of arbitrary bytes never panics the merge. It merges
    /// exactly when its entries parse, into their runs of equal keys;
    /// otherwise it fails at the first entry `read_entry` refuses.
    #[test]
    fn arbitrary_bytes_merge_or_fail_where_the_reader_does(
        input in prop::collection::vec(prop_oneof![0u8..4, 0u8..4, 0u8..4, any::<u8>()], 0..24),
        chunk in chunk_strategy(),
    ) {
        let mut want: Merged = Vec::new();
        let mut rest = input.as_slice();
        let fails = loop {
            let at = input.len() - rest.len();
            match read_entry(&mut rest) {
                Ok(None) => break None,
                Err(_) => break Some(at as u64),
                Ok(Some((k, v))) => match want.last_mut() {
                    Some(((_, key), values)) if key.as_slice() == k => values.push(v.to_vec()),
                    _ => want.push(((0, k.to_vec()), vec![v.to_vec()])),
                },
            }
        };
        for chunk in [None, Some(chunk)] {
            let (got, end) = run(std::slice::from_ref(&input), false, chunk);
            match fails {
                None => {
                    prop_assert_eq!(end, Ok(()));
                    prop_assert_eq!(&got, &want);
                }
                Some(offset) => prop_assert_eq!(end, Err(Torn { source: 0, offset })),
            }
        }
    }
}

/// One 200 KB group, split over two sources read 64 KiB at a time, comes
/// out whole: the window grows past a chunk for it.
#[test]
fn a_group_larger_than_a_chunk_comes_out_whole() {
    let value = vec![9u8; 10_000];
    let mut a = Vec::new();
    let mut b = Vec::new();
    for _ in 0..10 {
        write_entry(&mut a, b"hot", &value);
        write_entry(&mut b, b"hot", &value);
    }
    write_entry(&mut b, b"z", b"1");
    let (got, end) = run(&[a, b], false, Some(64 << 10));
    assert_eq!(end, Ok(()));
    assert_eq!(got.len(), 2);
    assert_eq!(got[0].0, (0, b"hot".to_vec()));
    assert_eq!(got[0].1.len(), 20);
    assert!(got[0].1.iter().all(|v| v == &value));
    assert_eq!(got[1], ((0, b"z".to_vec()), vec![b"1".to_vec()]));
}

/// A group whose reader stops early leaves the next group whole.
#[test]
fn a_group_left_unread_does_not_shift_the_next() {
    let mut bytes = Vec::new();
    for (k, v) in [("a", "1"), ("a", "2"), ("b", "3")] {
        write_entry(&mut bytes, k.as_bytes(), v.as_bytes());
    }
    let mut sources = [bytes.as_slice()];
    let mut seen = Vec::new();
    merge(&mut sources, None, |_, key, values| {
        seen.push((key.to_vec(), values.next().unwrap().to_vec()));
    })
    .unwrap();
    assert_eq!(
        seen,
        vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), b"3".to_vec())
        ]
    );
}

#[test]
fn no_sources_merge_to_nothing() {
    let (got, end) = run(&[], false, None);
    assert!(got.is_empty());
    assert_eq!(end, Ok(()));
}
