//! LEB128 varints and zigzag mapping for signed integers.
//!
//! Varints keep shuffled record streams small: most real key spaces
//! (word counts, vertex ids, rating values) are dominated by small
//! integers, which encode in one byte instead of eight.

use crate::CodecError;

/// Append `v` to `buf` as an LEB128 varint (1–10 bytes).
pub fn write_varint(mut v: u64, buf: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// [`write_varint`] into a fixed buffer instead of a `Vec`, for a key
/// built on the stack; returns how many bytes of `out` it took.
pub fn write_varint_into(mut v: u64, out: &mut [u8; 10]) -> usize {
    for (i, slot) in out.iter_mut().enumerate() {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            *slot = byte;
            return i + 1;
        }
        *slot = byte | 0x80;
    }
    unreachable!("a u64 takes at most 10 varint bytes")
}

/// Read one LEB128 varint from the front of `input`, advancing it.
pub fn read_varint(input: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i == 10 {
            return Err(CodecError::VarintOverflow);
        }
        let payload = u64::from(byte & 0x7f);
        // The 10th byte may only contribute the lowest bit of u64.
        if shift == 63 && payload > 1 {
            return Err(CodecError::VarintOverflow);
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            *input = &input[i + 1..];
            return Ok(v);
        }
        shift += 7;
    }
    Err(CodecError::Truncated)
}

/// Map a signed integer to an unsigned one so small magnitudes encode
/// small: 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ...
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(v: u64) {
        let mut buf = Vec::new();
        write_varint(v, &mut buf);
        let mut input = buf.as_slice();
        assert_eq!(read_varint(&mut input).unwrap(), v);
        assert!(input.is_empty());
        let mut fixed = [0u8; 10];
        let len = write_varint_into(v, &mut fixed);
        assert_eq!(fixed[..len], buf[..]);
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [
            0,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            rt(v);
        }
    }

    #[test]
    fn varint_lengths() {
        let len = |v: u64| {
            let mut b = Vec::new();
            write_varint(v, &mut b);
            b.len()
        };
        assert_eq!(len(0), 1);
        assert_eq!(len(127), 1);
        assert_eq!(len(128), 2);
        assert_eq!(len(u64::MAX), 10);
    }

    #[test]
    fn varint_truncated() {
        let mut input: &[u8] = &[0x80, 0x80];
        assert_eq!(read_varint(&mut input), Err(CodecError::Truncated));
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes is always invalid.
        let bytes = [0x80u8; 10];
        let mut with_tail = bytes.to_vec();
        with_tail.push(0x01);
        let mut input = with_tail.as_slice();
        assert_eq!(read_varint(&mut input), Err(CodecError::VarintOverflow));
        // 10 bytes whose last byte sets bits beyond u64 is invalid too.
        let mut too_big = vec![0xffu8; 9];
        too_big.push(0x02);
        let mut input = too_big.as_slice();
        assert_eq!(read_varint(&mut input), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn zigzag_roundtrips() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -1234567, 1234567] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_small() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }
}
