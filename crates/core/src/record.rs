//! Records and frame bins: the engine's data units.
//!
//! A [`FrameBin`] is a contiguous batch of `(key, value)` entries
//! addressed to one edge of the flowlet graph — the paper's "minimum
//! data required to enable a flowlet" and the unit the scheduler fires
//! tasks against. The payload is a single shared buffer ([`Frame`]),
//! so cloning a bin (broadcast) is a refcount bump and consumers slice
//! keys and values out of it without copying. Key hashes are not in
//! it: what a link is charged for is lengths, keys and values.
//!
//! [`Record`] survives as the erased key-value pair handed back to the
//! driver as captured job output; it is no longer on the shuffle path.

use bytes::Bytes;
use hamr_codec::{stable_hash, Frame, FrameBuilder};
use hamr_trace::{Audit, AuditStage};

/// One erased key-value pair (captured job output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub key: Bytes,
    pub value: Bytes,
}

impl Record {
    pub fn new(key: Bytes, value: Bytes) -> Self {
        Record { key, value }
    }
}

/// A batch of records flowing along one graph edge toward one node,
/// packed into one contiguous frame.
#[derive(Debug, Clone)]
pub struct FrameBin {
    /// Which edge of the job graph this bin travels on.
    pub edge: usize,
    /// The packed `(key, value)` payload.
    pub frame: Frame,
    /// Lineage span id for causal profiling; `0` (= `NO_SPAN`) when
    /// tracing is off, so the untraced hot path pays one `u64` copy.
    pub span: u64,
}

impl FrameBin {
    pub fn new(edge: usize, frame: Frame) -> Self {
        FrameBin {
            edge,
            frame,
            span: hamr_trace::NO_SPAN,
        }
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

    /// Serialized payload size (drives the network bandwidth model).
    /// Exact: the frame's encoded bytes are what the wire would carry.
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.frame.payload_bytes()
    }

    /// Wire size including a small fixed header.
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
    fn empty_bin() {
        let bin = FrameBin::new(0, Frame::empty());
        assert!(bin.is_empty());
        assert_eq!(bin.payload_bytes(), 0);
        assert_eq!(bin.wire_size(), 16);
    }
}
