//! Contiguous record frames — the zero-copy bin payload — and the one
//! entry codec every record in the workspace is written and read with.
//!
//! A frame packs many `(key, value)` records into one buffer:
//!
//! ```text
//! entry := [klen: varint] [key] [vlen: varint] [value]
//! frame := entry*
//! ```
//!
//! That buffer is everything a frame is — in the resident store, in a
//! spill file, on a loopback send. On a link between two nodes it
//! travels packed by [`crate::huffman`], and is unpacked and
//! re-validated with [`Frame::parse`] on arrival. The 64-bit key hash
//! the producer computed to route the record is *not* in it: eight
//! bytes per record are worth 3.8 µs on a 2 MiB/s link and 11 ns to
//! recompute, so a consumer that shards by key hashes the key again.
//! The producer still wants its hashes once more, when a frame closes
//! (the statistics fold), so [`FrameBuilder`] keeps them in a column
//! beside the payload and [`FrameBuilder::finish`] hands both back.
//!
//! The payload is one allocation: producers append into a
//! [`FrameBuilder`], `freeze` turns the buffer into an immutable,
//! shared [`Frame`], and consumers borrow entries out of it
//! ([`Frame::iter`]).
//!
//! [`write_entry`] and [`read_entry`] are the layout's one writer and
//! reader, for frames and every other record: HAMR's spill runs and
//! job-output capture, the baseline's spill runs (behind a partition
//! varint), partition blobs and DFS key-value files (reducer output,
//! `InputFormat::KeyValue` input). A torn entry is an error at its
//! start: `DiskError::Truncated` in a spill run or a DFS block,
//! `MrError::TruncatedChunk` in a shuffle chunk.

use crate::varint::{read_varint, write_varint};
use crate::CodecError;
use bytes::Bytes;

/// One entry's key and value, borrowed from the bytes they were read
/// from.
pub type Entry<'a> = (&'a [u8], &'a [u8]);

/// Append one entry, `[varint klen] [key] [varint vlen] [value]`.
#[inline]
pub fn write_entry(buf: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    write_varint(key.len() as u64, buf);
    buf.extend_from_slice(key);
    write_varint(value.len() as u64, buf);
    buf.extend_from_slice(value);
}

/// Read the entry at the front of `input`, borrowing its key and value,
/// and advance past it. `Ok(None)` when `input` is empty. An entry that
/// `input` ends inside is an error — a cut length (`Truncated`), a
/// field running past the end (`BadLength` with the field's length) or
/// an over-long varint (`VarintOverflow`) — and leaves `input` where
/// the entry starts.
#[inline]
pub fn read_entry<'a>(input: &mut &'a [u8]) -> Result<Option<Entry<'a>>, CodecError> {
    if input.is_empty() {
        return Ok(None);
    }
    let (mut rest, mut fields) = (*input, [&[][..]; 2]);
    for field in &mut fields {
        let len = read_varint(&mut rest)?;
        let at = usize::try_from(len).unwrap_or(usize::MAX);
        (*field, rest) = rest
            .split_at_checked(at)
            .ok_or(CodecError::BadLength(len))?;
    }
    *input = rest;
    Ok(Some((fields[0], fields[1])))
}

/// Append-side of a frame: one growable payload buffer plus the
/// producer-side column of key hashes, one per entry in push order.
#[derive(Debug, Default)]
pub struct FrameBuilder {
    buf: Vec<u8>,
    hashes: Vec<u64>,
}

impl FrameBuilder {
    pub fn new() -> Self {
        FrameBuilder::default()
    }

    /// Pre-size for `records` entries totalling `bytes` of payload.
    pub fn with_capacity(records: usize, bytes: usize) -> Self {
        FrameBuilder {
            buf: Vec::with_capacity(bytes),
            hashes: Vec::with_capacity(records),
        }
    }

    /// Append one record. `hash` must be `stable_hash(key)`; it goes
    /// into the builder's hash column, not into the payload.
    #[inline]
    pub fn push(&mut self, hash: u64, key: &[u8], value: &[u8]) {
        write_entry(&mut self.buf, key, value);
        self.hashes.push(hash);
    }

    /// Records appended so far.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Encoded payload size so far.
    pub fn payload_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Freeze into an immutable, cheaply clonable frame; the hash
    /// column is dropped. With the offline `bytes` shim this copies the
    /// payload once, into an exact-size shared allocation.
    pub fn freeze(self) -> Frame {
        self.finish().0
    }

    /// [`Self::freeze`], also returning the pushed hashes in entry
    /// order — for the producer's own use; they never ship.
    pub fn finish(self) -> (Frame, Vec<u64>) {
        (Frame::written(self.buf, self.hashes.len()), self.hashes)
    }
}

/// An immutable batch of `(key, value)` records in one shared buffer.
/// `clone()` is a refcount bump; `default()` holds no records.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    data: Bytes,
    entries: usize,
}

impl Frame {
    /// Freeze `buf`, written as `entries` entries with [`write_entry`],
    /// into a frame without re-parsing it (debug builds check the count).
    pub fn written(buf: Vec<u8>, entries: usize) -> Frame {
        let frame = Frame {
            data: Bytes::from(buf),
            entries,
        };
        debug_assert_eq!(frame.iter().count(), entries, "a frame's entry count");
        frame
    }

    /// Validate an untrusted buffer as a frame, counting its entries.
    /// Every entry must be well-formed and the payload must end exactly
    /// on an entry boundary.
    pub fn parse(data: Bytes) -> Result<Frame, CodecError> {
        let mut input = &data[..];
        let mut entries = 0usize;
        while read_entry(&mut input)?.is_some() {
            entries += 1;
        }
        Ok(Frame { data, entries })
    }

    /// Number of records in the frame.
    pub fn entries(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Exact encoded payload size: what a loopback send carries, and
    /// what [`crate::huffman::pack`] codes for a link.
    pub fn payload_bytes(&self) -> usize {
        self.data.len()
    }

    /// The shared payload buffer.
    pub fn data(&self) -> &Bytes {
        &self.data
    }

    /// Borrowing iterator over `(key, value)` — the cheapest way to
    /// consume a frame when the records don't outlive it (map tasks,
    /// fold-into-accumulator paths). Entries were validated when the
    /// frame was built or parsed.
    pub fn iter(&self) -> impl Iterator<Item = Entry<'_>> {
        let mut input = &self.data[..];
        std::iter::from_fn(move || read_entry(&mut input).ok().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable_hash;

    fn build(pairs: &[(&[u8], &[u8])]) -> Frame {
        let mut b = FrameBuilder::new();
        for (k, v) in pairs {
            b.push(stable_hash(k), k, v);
        }
        b.freeze()
    }

    #[test]
    fn entries_round_trip() {
        let mut buf = Vec::new();
        write_entry(&mut buf, b"key", b"value");
        write_entry(&mut buf, b"", b"");
        write_entry(&mut buf, b"x", &[0xff, 0x00]);
        let mut input = buf.as_slice();
        let mut next = || read_entry(&mut input).unwrap();
        assert_eq!(next(), Some((&b"key"[..], &b"value"[..])));
        assert_eq!(next(), Some((&b""[..], &b""[..])));
        assert_eq!(next(), Some((&b"x"[..], &[0xff, 0x00][..])));
        assert_eq!(next(), None);
    }

    /// Every cut inside an entry is a torn entry, not the end of the
    /// input: the reader errs and stays put on the entry.
    #[test]
    fn read_entry_refuses_a_torn_entry() {
        let mut buf = Vec::new();
        write_entry(&mut buf, b"key", b"value");
        let whole = buf.len();
        write_entry(&mut buf, b"k2", b"v2");
        for cut in whole + 1..buf.len() {
            let mut input = &buf[..cut];
            assert!(read_entry(&mut input).unwrap().is_some(), "cut {cut}");
            let before = input;
            // `[2] k 2 [2] v 2`: only the cut before `vlen` cuts a varint.
            let want = match cut - whole {
                3 => CodecError::Truncated,
                _ => CodecError::BadLength(2),
            };
            assert_eq!(read_entry(&mut input), Err(want), "cut {cut}");
            assert_eq!(input, before, "cut {cut}");
        }
    }

    #[test]
    fn round_trips_entries_in_order() {
        let frame = build(&[(b"alpha", b"1"), (b"", b"empty-key"), (b"k", b"")]);
        assert_eq!(frame.entries(), 3);
        let got: Vec<_> = frame.iter().collect();
        assert_eq!(got[0], (&b"alpha"[..], &b"1"[..]));
        assert_eq!(got[1], (&b""[..], &b"empty-key"[..]));
        assert_eq!(got[2], (&b"k"[..], &b""[..]));
    }

    #[test]
    fn finish_returns_the_hash_column_in_push_order() {
        let mut b = FrameBuilder::new();
        b.push(7, b"a", b"1");
        b.push(3, b"b", b"2");
        b.push(7, b"a", b"3");
        let (frame, hashes) = b.finish();
        assert_eq!(hashes, vec![7, 3, 7]);
        assert_eq!(frame.entries(), 3);
        // The hashes are beside the payload, not in it.
        assert_eq!(frame.payload_bytes(), 3 * 4);
    }

    /// A clone shares the frame's allocation, and iterating either one
    /// borrows keys and values out of it in place.
    #[test]
    fn shared_iter_is_zero_copy() {
        let frame = build(&[(b"key1", b"value1"), (b"key2", b"value2")]);
        let shared = frame.clone();
        assert_eq!(shared.data().as_ptr(), frame.data().as_ptr());
        let base = frame.data().as_ptr() as usize;
        let end = base + frame.payload_bytes();
        for (k, v) in shared.iter() {
            for part in [k, v] {
                let p = part.as_ptr() as usize;
                assert!(p >= base && p + part.len() <= end);
            }
        }
        let all: Vec<_> = shared.iter().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, b"key1");
        assert_eq!(all[1].1, b"value2");
    }

    #[test]
    fn parse_accepts_built_frames() {
        let frame = build(&[(b"a", b"b"), (b"cc", b"dd")]);
        let parsed = Frame::parse(frame.data().clone()).unwrap();
        assert_eq!(parsed.entries(), 2);
        assert_eq!(
            parsed.iter().collect::<Vec<_>>(),
            frame.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn parse_rejects_truncation_and_bad_lengths() {
        let frame = build(&[(b"abcdef", b"ghijkl")]);
        let data = frame.data();
        // Any strict prefix that isn't empty must fail to parse.
        for cut in 1..data.len() {
            assert!(
                Frame::parse(data.slice(..cut)).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
        // A length prefix pointing past the end is rejected.
        let mut bad = data.to_vec();
        bad[0] = 0x7f; // klen = 127 >> remaining
        assert_eq!(
            Frame::parse(Bytes::from(bad)).unwrap_err(),
            CodecError::BadLength(127)
        );
    }

    #[test]
    fn large_values_cross_varint_width_boundaries() {
        let big_value = vec![0xabu8; 70_000]; // vlen needs 3 varint bytes
        let long_key = vec![b'k'; 300]; // klen needs 2 varint bytes
        let mut b = FrameBuilder::new();
        b.push(stable_hash(&long_key), &long_key, &big_value);
        let frame = b.freeze();
        let (k, v) = frame.iter().next().unwrap();
        assert_eq!(k, &long_key[..]);
        assert_eq!(v, &big_value[..]);
        assert_eq!(frame.payload_bytes(), 2 + 300 + 3 + 70_000);
        assert!(Frame::parse(frame.data().clone()).is_ok());
    }

    #[test]
    fn empty_frame_behaves() {
        let frame = Frame::default();
        assert!(frame.is_empty());
        assert_eq!(frame.iter().count(), 0);
        assert_eq!(Frame::parse(Bytes::new()).unwrap().entries(), 0);
    }

    #[test]
    fn builder_reports_sizes() {
        let mut b = FrameBuilder::with_capacity(4, 64);
        assert!(b.is_empty());
        b.push(7, b"abc", b"de");
        assert_eq!(b.len(), 1);
        // 1 (klen) + 3 + 1 (vlen) + 2: the hash takes no payload.
        assert_eq!(b.payload_bytes(), 7);
        let f = b.freeze();
        assert_eq!(f.payload_bytes(), 7);
    }
}
