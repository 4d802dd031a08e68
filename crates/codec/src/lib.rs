//! Compact, dependency-free binary encoding for HAMR keys and values.
//!
//! The HAMR engine moves type-erased `(key, value)` byte pairs between
//! flowlets; this crate is the typed boundary. Every type a user flowlet
//! emits or consumes implements [`Codec`], a small symmetric
//! encode/decode trait over byte slices. The engine's typed wrappers
//! (`hamr-core::typed`) use it to erase and recover records.
//!
//! The format is deliberately simple and stable:
//! * fixed-width little-endian for floats,
//! * LEB128 varints for all integers (zigzag for signed),
//! * length-prefixed bytes for strings/vectors,
//! * one tag byte for `Option`/`bool`.
//!
//! It is *not* self-describing: both ends must agree on the type, which
//! the typed flowlet layer guarantees statically.
//!
//! Records travel in [`frame`]s, whose entry layout is also every spill
//! run's and shuffle chunk's; [`merge`] merges sorted runs of it, and a
//! frame crossing a link is packed with the order-0 Huffman coder in
//! [`huffman`]. In memory, a byte arena's keys are found through the
//! one probing table, [`slots::Slots`].

pub mod frame;
pub mod hash;
pub mod huffman;
pub mod merge;
pub mod slots;
mod varint;

pub use frame::{read_entry, write_entry, Entry, Frame, FrameBuilder};
pub use hash::{partition, stable_hash};
pub use varint::{read_varint, write_varint, write_varint_into, zigzag_decode, zigzag_encode};

use bytes::Bytes;
use std::fmt;

/// Error produced when decoding malformed or truncated bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was fully decoded.
    Truncated,
    /// A tag byte (e.g. for `Option` or `bool`) had an invalid value.
    InvalidTag(u8),
    /// A length prefix exceeded remaining input or a sanity bound.
    BadLength(u64),
    /// Decoded bytes were not valid UTF-8.
    Utf8,
    /// A varint ran longer than 10 bytes.
    VarintOverflow,
    /// Huffman code lengths that are no prefix code, or a bitstream that
    /// spells a code no byte value has.
    BadCode,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::InvalidTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            CodecError::BadLength(n) => write!(f, "bad length prefix {n}"),
            CodecError::Utf8 => write!(f, "invalid utf-8"),
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::BadCode => write!(f, "invalid Huffman code"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Symmetric binary serialization for flowlet keys and values.
///
/// Implementations must round-trip: `decode(encode(x)) == x`, and
/// `decode` must consume exactly the bytes `encode` produced so that
/// values can be concatenated into record streams.
pub trait Codec: Sized {
    /// Append the encoded form of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decode one value from the front of `input`, advancing it past
    /// the consumed bytes.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;

    /// Encode into a fresh `Bytes` buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        Bytes::from(buf)
    }

    /// Decode from a complete buffer, requiring all bytes be consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut input = bytes;
        let v = Self::decode(&mut input)?;
        if input.is_empty() {
            Ok(v)
        } else {
            Err(CodecError::BadLength(input.len() as u64))
        }
    }
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if input.len() < n {
        return Err(CodecError::Truncated);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

impl Codec for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl Codec for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take(input, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl Codec for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(take(input, 1)?[0])
    }
}

macro_rules! impl_codec_unsigned {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                write_varint(*self as u64, buf);
            }
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                let v = read_varint(input)?;
                <$t>::try_from(v).map_err(|_| CodecError::BadLength(v))
            }
        }
    )*};
}

impl_codec_unsigned!(u16, u32, u64, usize);

macro_rules! impl_codec_signed {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                write_varint(zigzag_encode(*self as i64), buf);
            }
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                let v = zigzag_decode(read_varint(input)?);
                <$t>::try_from(v).map_err(|_| CodecError::BadLength(v as u64))
            }
        }
    )*};
}

impl_codec_signed!(i16, i32, i64, isize);

impl Codec for f32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let b = take(input, 4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

impl Codec for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let b = take(input, 8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(f64::from_le_bytes(arr))
    }
}

/// Append `s` as a `String` encodes: a borrowed text value — a line
/// read out of a block — written without building a `String` first.
pub fn write_str(s: &str, buf: &mut Vec<u8>) {
    write_varint(s.len() as u64, buf);
    buf.extend_from_slice(s.as_bytes());
}

impl Codec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_str(self, buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = read_varint(input)?;
        let len = usize::try_from(len).map_err(|_| CodecError::BadLength(len))?;
        let raw = take(input, len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::Utf8)
    }
}

impl Codec for Bytes {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(self.len() as u64, buf);
        buf.extend_from_slice(self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = read_varint(input)?;
        let len = usize::try_from(len).map_err(|_| CodecError::BadLength(len))?;
        let raw = take(input, len)?;
        Ok(Bytes::copy_from_slice(raw))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(self.len() as u64, buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = read_varint(input)?;
        let len = usize::try_from(len).map_err(|_| CodecError::BadLength(len))?;
        // Guard against absurd prefixes on truncated input: each element
        // consumes at least one byte except `()`, which we cap anyway.
        let mut out = Vec::with_capacity(len.min(input.len().max(16)));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take(input, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

macro_rules! impl_codec_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                Ok(($($name::decode(input)?,)+))
            }
        }
    };
}

impl_codec_tuple!(A: 0);
impl_codec_tuple!(A: 0, B: 1);
impl_codec_tuple!(A: 0, B: 1, C: 2);
impl_codec_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let b = v.to_bytes();
        assert_eq!(T::from_bytes(&b).unwrap(), v);
    }

    #[test]
    fn unit_roundtrip() {
        roundtrip(());
        assert!(<() as Codec>::to_bytes(&()).is_empty());
    }

    #[test]
    fn bool_roundtrip() {
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn bool_invalid_tag() {
        assert_eq!(bool::from_bytes(&[7]), Err(CodecError::InvalidTag(7)));
    }

    #[test]
    fn int_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0u16);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(i16::MIN);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN);
        roundtrip(i64::MAX);
        roundtrip(-1i64);
        roundtrip(0i64);
    }

    #[test]
    fn small_ints_are_one_byte() {
        for v in 0u64..128 {
            assert_eq!(v.to_bytes().len(), 1, "u64 {v} should be 1 byte");
        }
        assert_eq!(128u64.to_bytes().len(), 2);
    }

    #[test]
    fn float_roundtrips() {
        roundtrip(0.0f32);
        roundtrip(-1.5f32);
        roundtrip(f32::INFINITY);
        roundtrip(0.0f64);
        roundtrip(std::f64::consts::PI);
        roundtrip(f64::NEG_INFINITY);
        let b = f64::NAN.to_bytes();
        assert!(f64::from_bytes(&b).unwrap().is_nan());
    }

    #[test]
    fn string_roundtrips() {
        roundtrip(String::new());
        roundtrip("hello".to_string());
        roundtrip("κλειδί-ключ-键".to_string());
    }

    #[test]
    fn string_rejects_bad_utf8() {
        // length 2, bytes [0xff, 0xff]
        assert_eq!(String::from_bytes(&[2, 0xff, 0xff]), Err(CodecError::Utf8));
    }

    #[test]
    fn bytes_roundtrip() {
        roundtrip(Bytes::from_static(b""));
        roundtrip(Bytes::from_static(b"\x00\x01\xff"));
    }

    #[test]
    fn vec_roundtrips() {
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(vec!["a".to_string(), String::new()]);
        roundtrip(vec![vec![1i32, -2], vec![]]);
    }

    #[test]
    fn option_roundtrips() {
        roundtrip(None::<u64>);
        roundtrip(Some(42u64));
        roundtrip(Some("x".to_string()));
    }

    #[test]
    fn tuple_roundtrips() {
        roundtrip((1u64,));
        roundtrip((1u64, "k".to_string()));
        roundtrip((1u64, 2.5f64, true));
        roundtrip((1u64, 2u32, 3u16, "four".to_string()));
    }

    #[test]
    fn truncated_inputs_error() {
        assert_eq!(u64::from_bytes(&[]), Err(CodecError::Truncated));
        assert_eq!(f64::from_bytes(&[0, 0]), Err(CodecError::Truncated));
        // string claims 5 bytes but only has 2
        assert_eq!(
            String::from_bytes(&[5, b'a', b'b']),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn trailing_bytes_rejected_by_from_bytes() {
        let mut b = 1u64.to_bytes().to_vec();
        b.push(0);
        assert!(matches!(u64::from_bytes(&b), Err(CodecError::BadLength(1))));
    }

    #[test]
    fn concatenated_stream_decodes_in_order() {
        let mut buf = Vec::new();
        "alpha".to_string().encode(&mut buf);
        7u64.encode(&mut buf);
        (-3i64).encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(String::decode(&mut input).unwrap(), "alpha");
        assert_eq!(u64::decode(&mut input).unwrap(), 7);
        assert_eq!(i64::decode(&mut input).unwrap(), -3);
        assert!(input.is_empty());
    }

    #[test]
    fn huge_vec_length_prefix_errors_not_panics() {
        let mut buf = Vec::new();
        write_varint(u64::MAX, &mut buf);
        assert!(Vec::<u8>::from_bytes(&buf).is_err());
    }
}
