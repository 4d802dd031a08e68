//! Records and frame bins: the engine's data units.
//!
//! A [`FrameBin`] is a contiguous batch of `(key, value)` entries
//! addressed to one edge of the flowlet graph — the paper's "minimum
//! data required to enable a flowlet" and the unit the scheduler fires
//! tasks against. The payload is a single shared buffer ([`Frame`]),
//! so cloning a bin (broadcast) is a refcount bump and consumers slice
//! keys and values out of it without copying. Key hashes are not in
//! it.
//!
//! A bin that crosses a link does so as a [`CodedBin`]: its payload
//! order-0 Huffman coded ([`hamr_codec::huffman`]), decoded back into a
//! `FrameBin` on arrival. What a link is charged for is the coded
//! payload; what the audit ledger counts, at every custody point, is
//! the raw one.
//!
//! A flowlet's captured job output is [`Captured`]: the frames its
//! tasks wrote it to, moved, not copied, from task to node to driver.

use bytes::Bytes;
use hamr_codec::{huffman, stable_hash, CodecError, Entry, Frame, FrameBuilder};
use hamr_trace::{Audit, AuditStage};

/// One flowlet's captured job output (`Emitter::output`): frame entries
/// in the frames the tasks that captured them closed, in no particular
/// order across tasks and nodes.
#[derive(Debug, Default)]
pub struct Captured {
    pub(crate) frames: Vec<Frame>,
    pub(crate) entries: usize,
}

impl Captured {
    /// Number of captured pairs.
    pub fn len(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Every captured `(key, value)`, borrowed from its frame.
    pub fn iter(&self) -> impl Iterator<Item = Entry<'_>> {
        self.frames.iter().flat_map(Frame::iter)
    }

    /// Move `frames` in behind this output's, as they are.
    pub(crate) fn append(&mut self, frames: Vec<Frame>) {
        self.entries += frames.iter().map(Frame::entries).sum::<usize>();
        self.frames.extend(frames);
    }
}

/// A batch of records flowing along one graph edge toward one node,
/// packed into one contiguous frame. A bin carries no lineage id: the
/// trace counts bins per edge and node, and record lineage is the
/// statistics plane's sampled keys.
#[derive(Debug, Clone)]
pub struct FrameBin {
    /// Which edge of the job graph this bin travels on.
    pub edge: usize,
    /// The packed `(key, value)` payload.
    pub frame: Frame,
}

impl FrameBin {
    pub fn new(edge: usize, frame: Frame) -> Self {
        FrameBin { edge, frame }
    }

    /// Build a bin from key-value pairs — a test and bench
    /// convenience; the hot path goes through `TaskOutput`.
    pub fn from_pairs(edge: usize, pairs: &[(&[u8], &[u8])]) -> Self {
        let mut b = FrameBuilder::new();
        for (k, v) in pairs {
            b.push(stable_hash(k), k, v);
        }
        FrameBin::new(edge, b.freeze())
    }

    /// Number of records in the bin.
    #[inline]
    pub fn len(&self) -> usize {
        self.frame.entries()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frame.is_empty()
    }

    /// The frame's encoded size: what the audit ledger counts.
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.frame.payload_bytes()
    }

    /// What a loopback send of the bin is charged: the payload as it
    /// is, plus a small fixed header. A bin for another node is coded
    /// first ([`CodedBin::wire_size`]).
    #[inline]
    pub fn wire_size(&self) -> usize {
        self.payload_bytes() + 16
    }

    /// Tally this bin at custody point `stage` of the audit ledger, on
    /// its way to (or at) node `dst`.
    #[inline]
    pub(crate) fn audit(&self, audit: &Audit, stage: AuditStage, dst: crate::NodeId) {
        let (records, bytes) = (self.len() as u64, self.payload_bytes() as u64);
        audit.record(stage, self.edge as u32, dst as u32, records, bytes);
    }

    /// The bin as it crosses a link.
    pub(crate) fn code(&self) -> CodedBin {
        CodedBin {
            edge: self.edge,
            records: self.len(),
            raw_bytes: self.payload_bytes(),
            packed: Bytes::from(huffman::pack(self.frame.data())),
        }
    }
}

/// A [`FrameBin`] on a link: its payload packed by
/// [`huffman::pack`], beside the record and raw byte counts the
/// ledger's deliver point tallies before anyone decodes it.
#[derive(Debug)]
pub(crate) struct CodedBin {
    pub edge: usize,
    pub records: usize,
    pub raw_bytes: usize,
    packed: Bytes,
}

impl CodedBin {
    /// The packed payload plus the fixed header a plain bin pays.
    pub fn wire_size(&self) -> usize {
        self.packed.len() + 16
    }

    /// Unpack and validate the frame: it must parse, and hold what the
    /// sender said it held.
    pub fn decode(self) -> Result<FrameBin, CodecError> {
        let frame = Frame::parse(huffman::unpack(&self.packed)?)?;
        if (frame.entries(), frame.payload_bytes()) != (self.records, self.raw_bytes) {
            return Err(CodecError::BadLength(frame.payload_bytes() as u64));
        }
        Ok(FrameBin::new(self.edge, frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_bin_reports_frame_sizes() {
        let bin = FrameBin::from_pairs(3, &[(b"k1", b"v1"), (b"k2", b"value2")]);
        assert_eq!(bin.edge, 3);
        assert_eq!(bin.len(), 2);
        assert!(!bin.is_empty());
        // Each entry: 1 (klen) + key + 1 (vlen) + value.
        assert_eq!(bin.payload_bytes(), (1 + 2 + 1 + 2) + (1 + 2 + 1 + 6));
        assert_eq!(bin.wire_size(), bin.payload_bytes() + 16);
    }

    #[test]
    fn from_pairs_packs_each_pair() {
        let bin = FrameBin::from_pairs(0, &[(b"alpha", b"1")]);
        assert_eq!(bin.frame.iter().next(), Some((&b"alpha"[..], &b"1"[..])));
    }

    #[test]
    fn clone_shares_the_frame_allocation() {
        let bin = FrameBin::from_pairs(1, &[(b"k", b"v")]);
        let copy = bin.clone();
        assert_eq!(
            bin.frame.data().as_ptr(),
            copy.frame.data().as_ptr(),
            "broadcast clones must not copy the payload"
        );
    }

    #[test]
    fn a_coded_bin_decodes_to_the_bin_it_was() {
        let keys: Vec<Vec<u8>> = (0..300).map(|i| format!("w{i}").into_bytes()).collect();
        let pairs: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (&k[..], &b"\x01"[..])).collect();
        let bin = FrameBin::from_pairs(4, &pairs);
        let coded = bin.code();
        assert_eq!((coded.records, coded.raw_bytes), (300, bin.payload_bytes()));
        assert!(coded.wire_size() < bin.wire_size() * 3 / 4, "{coded:?}");
        let back = coded.decode().unwrap();
        assert_eq!(back.edge, 4);
        assert!(back.frame.iter().eq(bin.frame.iter()));
        // A short bin is stored: one tag byte over its payload.
        let short = FrameBin::from_pairs(0, &[(b"k", b"v")]);
        assert_eq!(short.code().wire_size(), short.wire_size() + 1);
    }

    #[test]
    fn a_coded_bin_must_hold_what_its_sender_counted() {
        let bin = FrameBin::from_pairs(0, &[(b"k1", b"v1"), (b"k2", b"v2")]);
        let mut coded = bin.code();
        coded.records = 3;
        assert!(coded.decode().is_err());
        let mut coded = bin.code();
        coded.packed = coded.packed.slice(..coded.packed.len() - 1);
        assert!(coded.decode().is_err(), "a truncated frame");
    }

    #[test]
    fn empty_bin() {
        let bin = FrameBin::new(0, Frame::default());
        assert!(bin.is_empty());
        assert_eq!(bin.payload_bytes(), 0);
        assert_eq!(bin.wire_size(), 16);
    }
}
