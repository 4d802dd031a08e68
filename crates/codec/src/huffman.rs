//! Order-0 canonical Huffman coding of a frame payload — the form a
//! bin takes on a link.
//!
//! ```text
//! packed := STORED raw
//!         | CODED varint(raw_len) lengths bits
//! ```
//!
//! `lengths` is 128 bytes: one 4-bit code length per byte value, the
//! even value in the low nibble, 0 for a value the payload lacks. The
//! code is canonical, so the lengths are the whole table. `bits` is the
//! payload's codes, least significant bit first, zero-padded to a byte.
//! No code is longer than [`MAX_BITS`], so decoding a byte is one lookup
//! in a 4096-entry table. A payload that coding would not shrink is
//! stored behind its tag: the packed form is never longer than the
//! payload plus one byte.
//!
//! [`unpack`] takes its input as untrusted. A bad tag, lengths that are
//! not a prefix code, a `raw_len` the bitstream cannot hold, and a
//! truncated or over-long bitstream are each a [`CodecError`], never a
//! panic.

use crate::varint::{read_varint, write_varint};
use crate::CodecError;
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const STORED: u8 = 0;
const CODED: u8 = 1;

/// The longest code, in bits.
pub const MAX_BITS: u32 = 12;

/// Bytes of the code-length table: a nibble per byte value.
const LENGTHS_BYTES: usize = 128;

/// Pack `raw`: coded when that is shorter, else stored.
pub fn pack(raw: &[u8]) -> Vec<u8> {
    // The length table alone outweighs what a payload this short saves.
    if raw.len() <= LENGTHS_BYTES + 1 {
        return stored(raw);
    }
    let mut freq = [0u64; 256];
    for &b in raw {
        freq[usize::from(b)] += 1;
    }
    let lengths = code_lengths(&freq);
    let bits: u64 = freq
        .iter()
        .zip(&lengths)
        .map(|(&f, &l)| f * u64::from(l))
        .sum();
    let mut out = vec![CODED];
    write_varint(raw.len() as u64, &mut out);
    let coded = out.len() + LENGTHS_BYTES + bits.div_ceil(8) as usize;
    if coded > raw.len() {
        return stored(raw);
    }
    out.reserve_exact(coded - out.len());
    out.extend(lengths.chunks_exact(2).map(|pair| pair[0] | pair[1] << 4));
    let codes = canonical(&lengths).expect("built lengths form a prefix code");
    let (mut acc, mut n) = (0u64, 0u32);
    for &b in raw {
        acc |= u64::from(codes[usize::from(b)]) << n;
        n += u32::from(lengths[usize::from(b)]);
        if n >= 32 {
            out.extend_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            n -= 32;
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..n.div_ceil(8) as usize]);
    debug_assert_eq!(out.len(), coded);
    out
}

fn stored(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() + 1);
    out.push(STORED);
    out.extend_from_slice(raw);
    out
}

/// Recover the payload [`pack`] packed. A stored payload comes back as
/// a zero-copy view of `packed`.
pub fn unpack(packed: &Bytes) -> Result<Bytes, CodecError> {
    match packed.first() {
        None => Err(CodecError::Truncated),
        Some(&STORED) => Ok(packed.slice(1..)),
        Some(&CODED) => decode(&packed[1..]).map(Bytes::from),
        Some(&tag) => Err(CodecError::InvalidTag(tag)),
    }
}

fn decode(mut input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let raw_len = read_varint(&mut input)?;
    let (nibbles, bits) = input
        .split_at_checked(LENGTHS_BYTES)
        .ok_or(CodecError::Truncated)?;
    // Every byte takes at least one bit: bound the allocation by what
    // the stream can hold.
    if raw_len > 8 * bits.len() as u64 {
        return Err(CodecError::BadLength(raw_len));
    }
    let mut lengths = [0u8; 256];
    for (pair, &b) in lengths.chunks_exact_mut(2).zip(nibbles) {
        pair.copy_from_slice(&[b & 0xf, b >> 4]);
    }
    let codes = canonical(&lengths)?;
    // Indexed by the next MAX_BITS bits of the stream: the byte value
    // whose code they begin with, and the code's length above it; 0
    // where no code begins with them.
    let mut table = [0u16; 1 << MAX_BITS];
    for (value, &len) in lengths.iter().enumerate().filter(|(_, &l)| l > 0) {
        let entry = value as u16 | u16::from(len) << 8;
        for slot in table.iter_mut().skip(codes[value].into()).step_by(1 << len) {
            *slot = entry;
        }
    }
    let mut out = Vec::with_capacity(raw_len as usize);
    let (mut acc, mut n, mut pos) = (0u64, 0u32, 0usize);
    for _ in 0..raw_len {
        while n <= 56 && pos < bits.len() {
            acc |= u64::from(bits[pos]) << n;
            pos += 1;
            n += 8;
        }
        let entry = table[(acc & ((1 << MAX_BITS) - 1)) as usize];
        let len = u32::from(entry >> 8);
        if len == 0 {
            return Err(CodecError::BadCode);
        }
        if len > n {
            return Err(CodecError::Truncated);
        }
        out.push(entry as u8);
        acc >>= len;
        n -= len;
    }
    // Exactly `raw_len` codes, then the last byte's zero padding.
    if pos < bits.len() || n >= 8 || acc != 0 {
        return Err(CodecError::BadLength(raw_len));
    }
    Ok(out)
}

/// Each present byte value's canonical code, bit-reversed for an
/// LSB-first stream. Fails unless the lengths are at most [`MAX_BITS`]
/// and form a prefix code (Kraft sum at most 1) with one code at least.
fn canonical(lengths: &[u8; 256]) -> Result<[u16; 256], CodecError> {
    let mut count = [0u32; MAX_BITS as usize + 1];
    for &len in lengths {
        let slot = count.get_mut(usize::from(len)).ok_or(CodecError::BadCode)?;
        *slot += 1;
    }
    count[0] = 0;
    let kraft: u32 = (1..=MAX_BITS)
        .map(|l| count[l as usize] << (MAX_BITS - l))
        .sum();
    if kraft == 0 || kraft > 1 << MAX_BITS {
        return Err(CodecError::BadCode);
    }
    let mut next = [0u32; MAX_BITS as usize + 1];
    for len in 1..next.len() {
        next[len] = (next[len - 1] + count[len - 1]) << 1;
    }
    let mut codes = [0u16; 256];
    for (code, &len) in codes.iter_mut().zip(lengths).filter(|(_, &l)| l > 0) {
        let len = usize::from(len);
        *code = (next[len] as u16).reverse_bits() >> (16 - len);
        next[len] += 1;
    }
    Ok(codes)
}

/// Huffman code lengths for `freq`, none over [`MAX_BITS`]. Where the
/// optimal code is deeper, its deep codes are cut to `MAX_BITS` and the
/// Kraft sum this pushes over 1 is paid back by lengthening the longest
/// shorter codes, rarest value first.
fn code_lengths(freq: &[u64; 256]) -> [u8; 256] {
    let mut lengths = huffman_lengths(freq);
    let cap = MAX_BITS as u8;
    if lengths.iter().all(|&l| l <= cap) {
        return lengths;
    }
    let mut excess = -(1i64 << MAX_BITS);
    for len in lengths.iter_mut().filter(|l| **l > 0) {
        *len = (*len).min(cap);
        excess += 1 << (cap - *len);
    }
    // 256 codes of `cap` bits fit: some code is shorter while in excess.
    while excess > 0 {
        let v = (0..256)
            .filter(|&v| (1..cap).contains(&lengths[v]))
            .max_by_key(|&v| (lengths[v], Reverse(freq[v])))
            .expect("a code shorter than the cap");
        lengths[v] += 1;
        excess -= 1 << (cap - lengths[v]);
    }
    lengths
}

/// Optimal (unbounded) code lengths: a value's depth in the Huffman
/// tree. A lone value gets a one-bit code.
fn huffman_lengths(weights: &[u64; 256]) -> [u8; 256] {
    // Nodes 0..256 are the byte values, 256.. the merges, in order.
    let mut parent = [usize::MAX; 511];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..256)
        .filter(|&v| weights[v] > 0)
        .map(|v| Reverse((weights[v], v)))
        .collect();
    let mut lengths = [0u8; 256];
    if heap.len() == 1 {
        lengths[heap.peek().expect("one value").0 .1] = 1;
        return lengths;
    }
    let mut next = 256;
    while let (Some(Reverse((wa, a))), Some(Reverse((wb, b)))) = (heap.pop(), heap.pop()) {
        (parent[a], parent[b]) = (next, next);
        heap.push(Reverse((wa + wb, next)));
        next += 1;
    }
    for (v, len) in lengths.iter_mut().enumerate() {
        let mut node = v;
        while parent[node] != usize::MAX {
            node = parent[node];
            *len += 1;
        }
    }
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_skew_past_the_cap_is_cut_to_twelve_bits() {
        // Fibonacci counts: the optimal code is as deep as there are
        // values, here 20.
        let (mut freq, mut fib) = ([0u64; 256], (1, 1));
        for f in &mut freq[..20] {
            *f = fib.0;
            fib = (fib.1, fib.0 + fib.1);
        }
        assert_eq!(huffman_lengths(&freq).iter().max(), Some(&19));
        let lengths = code_lengths(&freq);
        assert_eq!(lengths.iter().max(), Some(&(MAX_BITS as u8)));
        assert!(canonical(&lengths).is_ok());
    }

    #[test]
    fn lengths_that_are_no_prefix_code_are_refused() {
        let mut lengths = [0u8; 256];
        assert_eq!(canonical(&lengths), Err(CodecError::BadCode), "no code");
        lengths[..3].copy_from_slice(&[1, 1, 1]);
        assert_eq!(canonical(&lengths), Err(CodecError::BadCode), "Kraft 3/2");
        lengths[2] = 0;
        assert!(canonical(&lengths).is_ok());
        lengths[0] = 13;
        assert_eq!(canonical(&lengths), Err(CodecError::BadCode), "13 bits");
    }
}
