//! Property tests for the frame wire format, `entry := klen key vlen
//! value`: arbitrary key/value bytes round-trip through `FrameBuilder`
//! → `Frame` unchanged and in order — for both the borrowed and the
//! zero-copy shared iterator — with the builder's hash column beside
//! the payload, never in it; the payload is exactly the sum of its
//! entries; `Frame::parse` survives arbitrary bytes; and the one entry
//! reader, `read_entry`, accepts exactly what `Frame::parse` does.

use hamr_codec::frame::{Frame, FrameBuilder};
use hamr_codec::{read_entry, stable_hash};
use proptest::prelude::*;

type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

fn builder(pairs: &[(Vec<u8>, Vec<u8>)]) -> FrameBuilder {
    let mut b = FrameBuilder::new();
    for (k, v) in pairs {
        b.push(stable_hash(k), k, v);
    }
    b
}

fn build(pairs: &[(Vec<u8>, Vec<u8>)]) -> Frame {
    builder(pairs).freeze()
}

fn owned(frame: &Frame) -> Pairs {
    frame
        .iter()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect()
}

/// Bytes of the LEB128 varint of `n`.
fn varint_len(n: usize) -> usize {
    (1..).find(|&b| n < 1 << (7 * b)).unwrap()
}

fn assert_frame_matches(frame: &Frame, pairs: &[(Vec<u8>, Vec<u8>)]) {
    assert_eq!(frame.entries(), pairs.len());
    // Borrowed iteration sees the entries, and its keys and values
    // alias the frame's buffer rather than copies of it.
    assert_eq!(owned(frame), pairs);
    let buf_range = {
        let b = &frame.data()[..];
        (b.as_ptr() as usize, b.as_ptr() as usize + b.len())
    };
    for (k, v) in frame.iter() {
        for part in [k, v] {
            if !part.is_empty() {
                let p = part.as_ptr() as usize;
                assert!(p >= buf_range.0 && p + part.len() <= buf_range.1);
            }
        }
    }
}

proptest! {
    /// Arbitrary small pairs (including empty keys and empty values)
    /// round-trip in order; the hash column comes back in push order;
    /// the payload carries lengths, keys and values and nothing else.
    #[test]
    fn roundtrip_arbitrary_pairs(
        pairs in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..200),
             prop::collection::vec(any::<u8>(), 0..96)),
            0..24,
        )
    ) {
        let b = builder(&pairs);
        let wire: usize = pairs
            .iter()
            .map(|(k, v)| varint_len(k.len()) + k.len() + varint_len(v.len()) + v.len())
            .sum();
        prop_assert_eq!(b.payload_bytes(), wire);
        let (frame, hashes) = b.finish();
        assert_frame_matches(&frame, &pairs);
        prop_assert_eq!(frame.payload_bytes(), wire);
        prop_assert_eq!(frame.data().len(), wire);
        let want: Vec<u64> = pairs.iter().map(|(k, _)| stable_hash(k)).collect();
        prop_assert_eq!(hashes, want);
    }

    /// A frame's raw bytes re-validate via `Frame::parse`, and the
    /// parsed frame yields identical entries.
    #[test]
    fn parse_accepts_own_encoding(
        pairs in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..32),
             prop::collection::vec(any::<u8>(), 0..32)),
            0..16,
        )
    ) {
        let frame = build(&pairs);
        let reparsed = Frame::parse(frame.data().clone()).expect("own bytes must parse");
        prop_assert_eq!(reparsed.entries(), frame.entries());
        assert_frame_matches(&reparsed, &pairs);
    }

    /// Truncating a one-entry buffer anywhere inside the entry must be
    /// rejected, not read out of bounds.
    #[test]
    fn parse_rejects_truncation(
        key in prop::collection::vec(any::<u8>(), 1..32),
        value in prop::collection::vec(any::<u8>(), 1..32),
        cut in 1usize..1000,
    ) {
        let frame = build(&[(key, value)]);
        let len = frame.data().len();
        let cut = 1 + cut % (len - 1); // 1..len, never 0 (empty = valid)
        let truncated = frame.data().slice(..cut);
        prop_assert!(Frame::parse(truncated).is_err());
    }

    /// Values longer than u16::MAX force multi-byte varint lengths and
    /// still round-trip exactly.
    #[test]
    fn roundtrip_large_values(
        key in prop::collection::vec(any::<u8>(), 0..8),
        fill in any::<u8>(),
        extra in 0usize..600,
    ) {
        let value = vec![fill; 65_536 + extra];
        let pairs = vec![(key, value)];
        let frame = build(&pairs);
        assert_frame_matches(&frame, &pairs);
        // 1 byte of klen, 3 of vlen.
        prop_assert_eq!(frame.data().len(), 1 + pairs[0].0.len() + 3 + 65_536 + extra);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `Frame::parse` never panics on arbitrary bytes. What it accepts
    /// iterates to exactly `entries()` records, and pushing those
    /// records again reproduces the input — byte for byte unless the
    /// input spelled a length as an over-long varint, in which case the
    /// re-encoding is strictly shorter and still parses to the same
    /// records. Small bytes are over-represented and the case count is
    /// raised so that hundreds of the inputs are well-formed frames.
    #[test]
    fn parse_survives_arbitrary_bytes(
        input in prop::collection::vec(prop_oneof![0u8..4, 0u8..4, 0u8..4, any::<u8>()], 0..24)
    ) {
        let Ok(frame) = Frame::parse(bytes::Bytes::from(input.clone())) else {
            return Ok(());
        };
        let pairs = owned(&frame);
        prop_assert_eq!(pairs.len(), frame.entries());
        let again = build(&pairs);
        if again.payload_bytes() == input.len() {
            prop_assert_eq!(&again.data()[..], &input[..]);
        } else {
            prop_assert!(again.payload_bytes() < input.len());
            prop_assert_eq!(owned(&again), pairs);
        }
    }

    /// `read_entry` never panics on arbitrary bytes and reads them to
    /// their end exactly when `Frame::parse` accepts them, yielding the
    /// frame's entries. Where it refuses an entry it stays put on it.
    #[test]
    fn read_entry_accepts_what_parse_accepts(
        input in prop::collection::vec(prop_oneof![0u8..4, 0u8..4, 0u8..4, any::<u8>()], 0..24)
    ) {
        let mut rest = input.as_slice();
        let mut pairs: Pairs = Vec::new();
        let read = loop {
            let before = rest;
            match read_entry(&mut rest) {
                Ok(Some((k, v))) => pairs.push((k.to_vec(), v.to_vec())),
                Ok(None) => break Ok(()),
                Err(e) => {
                    prop_assert_eq!(rest, before);
                    break Err(e);
                }
            }
        };
        match Frame::parse(bytes::Bytes::from(input.clone())) {
            Ok(frame) => {
                prop_assert_eq!(read, Ok(()));
                prop_assert_eq!(owned(&frame), pairs);
            }
            Err(e) => prop_assert_eq!(read, Err(e)),
        }
    }
}

#[test]
fn empty_frame_roundtrips() {
    let frame = build(&[]);
    assert_eq!(frame.entries(), 0);
    assert!(frame.is_empty());
    assert_eq!(frame.iter().count(), 0);
    assert!(Frame::parse(frame.data().clone()).is_ok());
}
