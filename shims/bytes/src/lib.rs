//! Minimal offline stand-in for the `bytes` crate.
//!
//! Implements the subset the workspace uses: an immutable, cheaply
//! clonable byte buffer plus a growable builder. [`Bytes`] is backed by
//! `Arc<[u8]>` with an `(offset, len)` view, so `clone()` is a refcount
//! bump and [`Bytes::slice`] hands out zero-copy sub-views of the same
//! allocation — the property the frame-bin data plane is built on.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer (possibly a sub-view of
/// a larger shared allocation).
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no allocation shared with anything else).
    pub fn new() -> Self {
        Bytes {
            data: Arc::from(&[][..]),
            off: 0,
            len: 0,
        }
    }

    /// Copy `data` into a fresh shared allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            off: 0,
            len: data.len(),
        }
    }

    /// The real crate keeps a pointer to the static data; copying is an
    /// acceptable stand-in since callers only rely on the value.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// A zero-copy sub-view sharing this buffer's allocation.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or decreasing, mirroring
    /// the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice out of bounds: {start}..{end} of {}",
            self.len
        );
        Bytes {
            data: Arc::clone(&self.data),
            off: self.off + start,
            len: end - start,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

// Borrow + a slice-identical Hash let `HashMap<Bytes, _>` be probed
// with plain `&[u8]` keys (hamr-kvstore relies on this).
impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == &other[..]
    }
}

impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            match b {
                b'"' => write!(f, "\\\"")?,
                b'\\' => write!(f, "\\\\")?,
                b'\n' => write!(f, "\\n")?,
                b'\r' => write!(f, "\\r")?,
                b'\t' => write!(f, "\\t")?,
                0x20..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: v.into(),
            off: 0,
            len,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        let len = b.len();
        Bytes {
            data: b.into(),
            off: 0,
            len,
        }
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A growable byte buffer that freezes into a shared [`Bytes`] — the
/// frame builders' backing store. Freezing copies the bytes once, into
/// the shared allocation (`Vec<u8>` into `Arc<[u8]>`); it is not a
/// handoff of the buffer.
#[derive(Default)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Convert into an immutable shared buffer.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut(len={})", self.buf.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn hash_matches_slice_hash() {
        let b = Bytes::copy_from_slice(b"hello");
        assert_eq!(hash_of(&b), hash_of(&b"hello"[..]));
    }

    #[test]
    fn map_lookup_by_slice() {
        let mut m: HashMap<Bytes, u32> = HashMap::new();
        m.insert(Bytes::from_static(b"k"), 7);
        assert_eq!(m.get(&b"k"[..]), Some(&7));
    }

    #[test]
    fn clone_shares_allocation() {
        let a = Bytes::copy_from_slice(b"abc");
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn ordering_and_eq_follow_slices() {
        let a = Bytes::from_static(b"aa");
        let b = Bytes::from_static(b"ab");
        assert!(a < b);
        assert_eq!(a, Bytes::from(b"aa".to_vec()));
    }

    #[test]
    fn slice_is_zero_copy_and_bounded() {
        let a = Bytes::copy_from_slice(b"hello world");
        let hello = a.slice(0..5);
        let world = a.slice(6..);
        assert_eq!(hello, b"hello"[..]);
        assert_eq!(world, b"world"[..]);
        // Same backing allocation, different windows.
        assert_eq!(unsafe { hello.as_ptr().add(6) }, world.as_ptr());
        // Slices of slices re-window relative to the view.
        assert_eq!(world.slice(1..3), b"or"[..]);
        assert_eq!(a.slice(..), a);
        assert_eq!(a.slice(5..5).len(), 0);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_past_end_panics() {
        Bytes::copy_from_slice(b"abc").slice(1..7);
    }

    #[test]
    fn sliced_bytes_hash_and_compare_as_their_view() {
        let a = Bytes::copy_from_slice(b"xxkeyxx");
        let key = a.slice(2..5);
        assert_eq!(hash_of(&key), hash_of(&b"key"[..]));
        let mut m: HashMap<Bytes, u32> = HashMap::new();
        m.insert(key, 1);
        assert_eq!(m.get(&b"key"[..]), Some(&1));
    }

    #[test]
    fn bytes_mut_freeze_round_trip() {
        let mut b = BytesMut::with_capacity(4);
        b.extend_from_slice(b"ab");
        b.put_u8(b'c');
        assert_eq!(b.len(), 3);
        let frozen = b.freeze();
        assert_eq!(frozen, b"abc"[..]);
        // A frozen buffer still slices zero-copy.
        assert_eq!(frozen.slice(1..), b"bc"[..]);
    }

    #[test]
    fn bytes_mut_clear_reuses_capacity() {
        let mut b = BytesMut::with_capacity(16);
        b.extend_from_slice(b"0123456789");
        let cap = b.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
    }
}
