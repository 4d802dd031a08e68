//! Property and fuzz tests for the wire coder (`hamr_codec::huffman`):
//! every payload round-trips through `pack` → `unpack` — empty, one
//! byte value, all 256, skews deep enough to meet the 12-bit cap,
//! 70,000-byte values, real frames — and is never packed longer than
//! itself plus the tag byte; and `unpack` answers arbitrary or corrupted
//! bytes with `Ok` or `Err`, never a panic.
//!
//! CI runs this file with `PROPTEST_CASES=10000`, so every case is kept
//! small; the large inputs are plain tests.

use bytes::Bytes;
use hamr_codec::huffman::{pack, unpack, MAX_BITS};
use hamr_codec::{read_varint, stable_hash, Codec, Frame, FrameBuilder};
use proptest::prelude::*;

/// Pack `raw`, check the size bound, and unpack it again.
fn round_trip(raw: &[u8]) -> Vec<u8> {
    let packed = pack(raw);
    assert!(
        packed.len() <= raw.len() + 1,
        "{} > {} + 1",
        packed.len(),
        raw.len()
    );
    unpack(&Bytes::from(packed))
        .expect("own packing unpacks")
        .to_vec()
}

/// The code lengths a coded packing carries, or `None` for a stored one.
fn code_lengths(packed: &[u8]) -> Option<Vec<u8>> {
    let (&tag, mut rest) = packed.split_first()?;
    if tag == 0 {
        return None;
    }
    read_varint(&mut rest).unwrap();
    Some(rest[..128].iter().flat_map(|b| [b & 0xf, b >> 4]).collect())
}

fn frame_of(pairs: &[(Vec<u8>, Vec<u8>)]) -> Frame {
    let mut b = FrameBuilder::new();
    for (k, v) in pairs {
        b.push(stable_hash(k), k, v);
    }
    b.freeze()
}

/// A frame through the wire and back: the same entries, in order.
fn assert_frame_round_trips(pairs: &[(Vec<u8>, Vec<u8>)]) {
    let frame = frame_of(pairs);
    let packed = Bytes::from(pack(frame.data()));
    let back = Frame::parse(unpack(&packed).unwrap()).unwrap();
    assert_eq!(back.entries(), pairs.len());
    assert!(back.iter().eq(frame.iter()));
}

#[test]
fn empty_one_value_and_every_value_round_trip() {
    // Short payloads are stored: the tag, then the payload.
    for raw in [&b""[..], b"short", &[7; 129]] {
        assert_eq!(pack(raw), [&[0], raw].concat());
    }
    // A lone value: the tag, raw_len, the table, a bit per byte.
    assert_eq!(pack(&[0xab; 8000]).len(), 1 + 2 + 128 + 1000);
    for len in [1, 129, 130, 5000] {
        assert_eq!(round_trip(&vec![b'w'; len]), vec![b'w'; len]);
    }
    // Uniform bytes take eight bits each, plus a table: stored.
    let every: Vec<u8> = (0..=255).cycle().take(4096).collect();
    assert_eq!(pack(&every)[0], 0);
    assert_eq!(round_trip(&every), every);
    // All 256 values, skewed so that coding wins: each is present.
    let mut skewed: Vec<u8> = (0..=255).collect();
    skewed.extend(std::iter::repeat_n(b'1', 8000));
    let lengths = code_lengths(&pack(&skewed)).expect("coded");
    assert!(lengths.iter().all(|&l| l > 0));
    assert_eq!(round_trip(&skewed), skewed);
}

#[test]
fn skews_deeper_than_the_cap_are_coded_at_twelve_bits() {
    // Value v occurs about `base`^v times: the optimal code is one bit
    // deeper per value, past 12.
    for (values, base) in [(16u32, 2.0f64), (24, 1.6), (40, 1.3)] {
        let mut raw = Vec::new();
        for v in 0..values {
            let n = base.powi(v as i32).ceil() as usize;
            raw.extend(std::iter::repeat_n(v as u8, n));
        }
        let packed = pack(&raw);
        let lengths = code_lengths(&packed).expect("coded");
        assert_eq!(lengths.iter().max().copied(), Some(MAX_BITS as u8));
        assert!(packed.len() < raw.len() / 2, "{values} values");
        assert_eq!(round_trip(&raw), raw);
    }
}

#[test]
fn seventy_thousand_byte_values_round_trip() {
    let noisy: Vec<u8> = (0..70_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let pairs = vec![
        (b"k".to_vec(), vec![0xab; 70_000]),
        (vec![b'k'; 300], noisy),
        (b"w1".to_vec(), 1u64.to_bytes().to_vec()),
    ];
    assert_frame_round_trips(&pairs);
    assert_frame_round_trips(&pairs[1..2]);
}

proptest! {
    /// Bytes from narrow and wide alphabets round-trip, packed no
    /// longer than themselves plus a byte.
    #[test]
    fn arbitrary_bytes_round_trip(
        raw in prop::collection::vec(prop_oneof![0u8..4, 0u8..16, 32u8..127, any::<u8>()], 0..2000)
    ) {
        prop_assert_eq!(round_trip(&raw), raw);
    }

    /// Frames as `FrameBuilder` makes them for a word count — `w<n>`
    /// keys, small varint counts — round-trip entry for entry.
    #[test]
    fn builder_frames_round_trip(
        entries in prop::collection::vec((0u64..2_000_000, 1u64..300), 0..300)
    ) {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = entries
            .iter()
            .map(|&(w, n)| (format!("w{w}").to_bytes().to_vec(), n.to_bytes().to_vec()))
            .collect();
        assert_frame_round_trips(&pairs);
    }

    /// Arbitrary bytes, small ones over-represented so the tags and
    /// short length tables occur.
    #[test]
    fn unpack_survives_arbitrary_bytes(
        input in prop::collection::vec(prop_oneof![0u8..3, 0u8..3, any::<u8>()], 0..400)
    ) {
        let _ = unpack(&Bytes::from(input));
    }

    /// A real coded packing with bytes overwritten and its tail cut:
    /// valid tables over damaged streams, and damaged tables.
    #[test]
    fn unpack_survives_corrupted_packings(
        raw in prop::collection::vec(0u8..6, 300..800),
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        cut in any::<usize>(),
    ) {
        let mut packed = pack(&raw);
        prop_assert_eq!(packed[0], 1);
        let intact = edits.is_empty() && cut % 4 != 0;
        for (at, byte) in edits {
            let len = packed.len();
            packed[at % len] = byte;
        }
        if cut % 4 == 0 {
            packed.truncate(cut / 4 % (packed.len() + 1));
        }
        let got = unpack(&Bytes::from(packed));
        if intact {
            prop_assert_eq!(got.unwrap().to_vec(), raw);
        }
    }
}
