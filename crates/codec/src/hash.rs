//! Stable byte-string hashing for key partitioning.
//!
//! Every node must route a key to the same partition, so the hash must
//! be deterministic and independent of `std`'s randomized `SipHash`.
//! This is the FxHash word-at-a-time multiply-xor construction — very
//! fast on short keys (word counts, vertex ids), quality good enough
//! for load-spreading, and identical everywhere.
//!
//! The same value keys the data plane's in-memory tables: a
//! [`crate::slots::Slots`] probe takes the hash its caller already has,
//! so a key is hashed once on each side of the wire and never again by
//! a map.

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Debug-only instrumentation: counts [`stable_hash`] invocations so
/// tests can pin the data plane's hash budget (once per emission for
/// routing, once more per record at a consumer that shards by key;
/// nothing else). Compiled out of release builds.
#[cfg(debug_assertions)]
pub mod hash_counter {
    use std::sync::atomic::{AtomicU64, Ordering};

    static CALLS: AtomicU64 = AtomicU64::new(0);

    #[inline]
    pub(super) fn bump() {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }

    /// Total [`super::stable_hash`] calls in this process so far.
    pub fn count() -> u64 {
        CALLS.load(Ordering::Relaxed)
    }
}

#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// The 1–7 bytes of `tail` as a little-endian word, zero-padded. Three
/// fixed-width loads: a `copy_from_slice` of run-time length is a
/// `memcpy` call, which cost four times the rest of the hash on the
/// short keys (words, vertex ids) this engine mostly sees.
#[inline]
fn load_tail(tail: &[u8]) -> u64 {
    let n = tail.len();
    let (mut word, mut at) = (0u64, 0);
    if n >= 4 {
        word = u64::from(u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]));
        at = 4;
    }
    if n - at >= 2 {
        word |= u64::from(u16::from_le_bytes([tail[at], tail[at + 1]])) << (8 * at);
        at += 2;
    }
    if at < n {
        word |= u64::from(tail[at]) << (8 * at);
    }
    word
}

/// Fold `bytes` into `hash`, a word at a time.
#[inline]
fn mix_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word: [u8; 8] = chunk.try_into().expect("chunks_exact(8) yields 8 bytes");
        hash = mix(hash, u64::from_le_bytes(word));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        // Fold the length in so "a" and "a\0" differ.
        hash = mix(hash, load_tail(tail) ^ ((tail.len() as u64) << 56));
    }
    hash
}

/// Final avalanche so low bits (used for `% partitions`) are well mixed.
#[inline]
fn avalanche(mut hash: u64) -> u64 {
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash
}

/// Deterministic 64-bit hash of a byte string.
pub fn stable_hash(bytes: &[u8]) -> u64 {
    #[cfg(debug_assertions)]
    hash_counter::bump();
    avalanche(mix_bytes(0, bytes))
}

/// Partition a key into `n` buckets.
#[inline]
pub fn partition(bytes: &[u8], n: usize) -> usize {
    debug_assert!(n > 0);
    (stable_hash(bytes) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(stable_hash(b"hello"), stable_hash(b"hello"));
        assert_eq!(stable_hash(b""), stable_hash(b""));
    }

    #[test]
    fn distinguishes_similar_inputs() {
        assert_ne!(stable_hash(b"a"), stable_hash(b"b"));
        assert_ne!(stable_hash(b"a"), stable_hash(b"a\0"));
        assert_ne!(stable_hash(b"ab"), stable_hash(b"ba"));
        assert_ne!(stable_hash(b"12345678"), stable_hash(b"123456789"));
    }

    #[test]
    fn tail_loads_match_a_zero_padded_copy() {
        let bytes: Vec<u8> = (1..=7).collect();
        for n in 1..=7 {
            let mut padded = [0u8; 8];
            padded[..n].copy_from_slice(&bytes[..n]);
            assert_eq!(load_tail(&bytes[..n]), u64::from_le_bytes(padded), "{n}");
        }
    }

    #[test]
    fn hash_values_are_pinned() {
        // Routing, sub-sharding and the sketches all key on these
        // values; a faster implementation must not move them.
        assert_eq!(stable_hash(b""), 0);
        assert_eq!(stable_hash(b"w17"), 0xb67e_23e2_9119_21ce);
        assert_eq!(stable_hash(b"the quick brown fox"), 0xa0f0_0183_5f4e_963d);
    }

    #[test]
    fn partition_in_range() {
        for n in 1..10 {
            for key in [&b"x"[..], b"yy", b"zzzzzzzzzz", b""] {
                assert!(partition(key, n) < n);
            }
        }
    }

    #[test]
    fn partitions_spread_reasonably() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for i in 0..8000u64 {
            let key = i.to_le_bytes();
            counts[partition(&key, n)] += 1;
        }
        for (p, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(&c),
                "partition {p} got {c} of 8000 keys: {counts:?}"
            );
        }
    }
}
