//! The one k-way group merge, for both engines: key-sorted sources of
//! frame entries in, each key once with all its values out, borrowed.
//! A record is an entry, or `[prefix] entry` with a `prefix` reader (a
//! baseline spill run's partition varint); the merge key is `(prefix,
//! key)`. A [`Source`] is a window of bytes — a whole slice, or a stream
//! that appends chunks as the merge asks. A source's current group is
//! made whole in its window before it is handed on, so a stream drops
//! only groups already merged and grows its window for a larger one.

use crate::frame::{read_entry, Entry};
use crate::CodecError;
use std::cmp::Ordering;

/// A key-sorted input to [`merge`].
pub trait Source {
    /// The buffered bytes the merge has not consumed.
    fn window(&self) -> &[u8];
    /// Drop the first `n` bytes of the window.
    fn consume(&mut self, n: usize);
    /// Bytes not in the window yet.
    fn remaining(&self) -> usize {
        0
    }
    /// Append the next bytes to the window, keeping what it holds at the
    /// same offsets. Called only while `remaining() > 0`.
    fn fill(&mut self) {}
}

impl Source for &[u8] {
    fn window(&self) -> &[u8] {
        self
    }

    fn consume(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// A source that ends inside a record, or holds a malformed one: its
/// index and the offset of the record's first byte in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torn {
    pub source: usize,
    pub offset: u64,
}

/// Reads a record's prefix off the front of its bytes.
pub type Prefix = fn(&mut &[u8]) -> Result<u64, CodecError>;

/// A source's current group: its prefix, where its key is in the
/// window, its bytes at the window's front and its record count.
#[derive(Clone, Copy)]
struct Head {
    prefix: u64,
    key: (usize, usize),
    len: usize,
    count: usize,
}

/// Merge key-sorted `sources`, handing `group` each merge key once with
/// all its values: source by source, in each source's order. A `group`
/// that stops pulling values early leaves the next group whole. Fails
/// on the first torn or malformed record a source holds. Each group
/// compares every source's current key once: no more than a heap would
/// with few sources, or when most sources hold each key.
pub fn merge<S: Source>(
    sources: &mut [S],
    prefix: Option<Prefix>,
    mut group: impl FnMut(u64, &[u8], &mut Values<'_, S>),
) -> Result<(), Torn> {
    let (mut heads, mut offsets) = (vec![None; sources.len()], vec![0u64; sources.len()]);
    // The sources to advance: every one at first, then a group's.
    let mut members: Vec<usize> = (0..sources.len()).collect();
    loop {
        for &i in &members {
            let len = heads[i].map_or(0, |h: Head| h.len);
            sources[i].consume(len);
            offsets[i] += len as u64;
            let offset = offsets[i];
            heads[i] = scan(&mut sources[i], prefix).map_err(|at| Torn {
                source: i,
                offset: offset + at as u64,
            })?;
        }
        // The least merge key and the sources whose group it is.
        let mut least = None;
        for (i, head) in heads.iter().enumerate() {
            let Some(h) = head else { continue };
            let mine = (h.prefix, &sources[i].window()[h.key.0..h.key.1]);
            match least.map(|l| mine.cmp(&l)) {
                Some(Ordering::Greater) => continue,
                Some(Ordering::Equal) => {}
                _ => {
                    least = Some(mine);
                    members.clear();
                }
            }
            members.push(i);
        }
        let Some((p, k)) = least else {
            return Ok(());
        };
        let left = members.iter().filter_map(|&i| heads[i]).map(|h| h.count);
        let mut values = Values {
            sources,
            heads: &heads,
            members: members.iter(),
            rest: &[],
            left: left.sum(),
            prefix,
        };
        group(p, k, &mut values);
    }
}

/// The record at the front of `input`: its prefix and its entry.
#[inline]
fn record<'a>(
    prefix: Option<Prefix>,
    input: &mut &'a [u8],
) -> Result<Option<(u64, Entry<'a>)>, CodecError> {
    if input.is_empty() {
        return Ok(None);
    }
    let mut rest = *input;
    let p = prefix.map_or(Ok(0), |read| read(&mut rest))?;
    let entry = read_entry(&mut rest)?.ok_or(CodecError::Truncated)?;
    *input = rest;
    Ok(Some((p, entry)))
}

/// The group at the front of `source`'s window, filled until it is
/// whole: `Ok(None)` at the source's end, `Err` with the window offset
/// of a torn or malformed record. A record the window ends inside fails
/// at once, without reading on, when a varint overflows or a length
/// runs past what the source still holds.
fn scan<S: Source>(source: &mut S, prefix: Option<Prefix>) -> Result<Option<Head>, usize> {
    let mut head: Option<Head> = None;
    loop {
        let (window, remaining) = (source.window(), source.remaining());
        let mut rest = &window[head.map_or(0, |h| h.len)..];
        loop {
            let at = window.len() - rest.len();
            let held = (window.len() - at + remaining) as u64;
            let (p, (k, _)) = match record(prefix, &mut rest) {
                Ok(Some(record)) => record,
                Ok(None) => break,
                Err(CodecError::Truncated) if remaining > 0 => break,
                Err(CodecError::BadLength(len)) if remaining > 0 && len <= held => break,
                Err(_) => return Err(at),
            };
            let len = window.len() - rest.len();
            match &mut head {
                Some(h) if (h.prefix, &window[h.key.0..h.key.1]) != (p, k) => return Ok(head),
                Some(h) => (h.len, h.count) = (len, h.count + 1),
                None => {
                    let start = k.as_ptr() as usize - window.as_ptr() as usize;
                    let key = (start, start + k.len());
                    head = Some(Head {
                        prefix: p,
                        key,
                        len,
                        count: 1,
                    });
                }
            }
        }
        if remaining == 0 {
            return Ok(head);
        }
        source.fill();
    }
}

/// One group's values, borrowed from its sources' windows.
pub struct Values<'m, S> {
    sources: &'m [S],
    heads: &'m [Option<Head>],
    members: std::slice::Iter<'m, usize>,
    rest: &'m [u8],
    left: usize,
    prefix: Option<Prefix>,
}

impl<'m, S: Source> Iterator for Values<'m, S> {
    type Item = &'m [u8];

    #[inline]
    fn next(&mut self) -> Option<&'m [u8]> {
        while self.rest.is_empty() {
            let &i = self.members.next()?;
            self.rest = &self.sources[i].window()[..self.heads[i]?.len];
        }
        self.left -= 1;
        // The merge has read these records: they are whole.
        let (_, (_, value)) = record(self.prefix, &mut self.rest).ok()??;
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<S: Source> ExactSizeIterator for Values<'_, S> {}
