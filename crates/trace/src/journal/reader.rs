//! Reading a journal directory back: segment discovery, the frame
//! scan that stops at the first torn or corrupt frame, and
//! [`read_journal`]. Bytes from disk enter the program here.

use super::codec::{crc32, MAX_FRAME_BYTES};
use super::JournalRecord;
use std::path::Path;

/// The segment files of `dir`, unsorted. Anything else in the
/// directory — an `index` file an older writer left, a stray temp
/// file — is not the journal's and is ignored.
pub(super) fn list_segments(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().to_string();
        if name.starts_with("seg-") && name.ends_with(".hjs") {
            out.push(name);
        }
    }
    Ok(out)
}

/// What one segment file holds.
pub(super) struct SegmentScan {
    /// The payload of every intact frame, in file order.
    pub payloads: Vec<Vec<u8>>,
    /// Length of the prefix those frames occupy.
    pub valid_bytes: u64,
    /// Bytes follow the valid prefix: a torn or corrupt frame.
    pub torn: bool,
}

/// Scan one segment file, stopping at the first corrupt or partial
/// frame.
pub(super) fn scan_segment(path: &Path) -> std::io::Result<SegmentScan> {
    let data = std::fs::read(path)?;
    let mut payloads = Vec::new();
    let mut off = 0usize;
    while off + 8 <= data.len() {
        let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as u64;
        let crc = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap());
        if len > MAX_FRAME_BYTES || off + 8 + len as usize > data.len() {
            break;
        }
        let payload = &data[off + 8..off + 8 + len as usize];
        if crc32(payload) != crc {
            break;
        }
        payloads.push(payload.to_vec());
        off += 8 + len as usize;
    }
    Ok(SegmentScan {
        payloads,
        valid_bytes: off as u64,
        torn: off < data.len(),
    })
}

/// Everything a journal directory yielded on read.
#[derive(Debug, Default)]
pub struct JournalRead {
    /// Decoded records across all segments, oldest first.
    pub records: Vec<JournalRecord>,
    /// Frames abandoned to CRC corruption or a torn tail.
    pub truncated_frames: u64,
    /// Frames whose payload decoded to an unknown tag or malformed
    /// body (skipped, e.g. written by another version).
    pub unknown_records: u64,
}

impl JournalRead {
    /// No frame at all, whole, torn or skipped: not a journal.
    fn holds_nothing(&self) -> bool {
        self.records.is_empty() && self.truncated_frames == 0 && self.unknown_records == 0
    }
}

/// Read a journal directory offline. Corruption inside a segment
/// abandons the rest of *that* segment only; later segments still
/// load. Missing directories are an error; an empty one is not.
pub fn read_journal(dir: &Path) -> Result<JournalRead, String> {
    let mut segs = list_segments(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    segs.sort();
    let mut out = JournalRead::default();
    for name in &segs {
        let path = dir.join(name);
        let scan = scan_segment(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        out.truncated_frames += u64::from(scan.torn);
        for payload in scan.payloads {
            match JournalRecord::decode(&payload) {
                Ok(rec) => out.records.push(rec),
                Err(_) => out.unknown_records += 1,
            }
        }
    }
    Ok(out)
}

/// Read `dir` — or, when it holds nothing itself, every journal among
/// its immediate subdirectories (the `HAMR_JOURNAL=auto` layout, one
/// per cluster), in name order. One read per journal, never merged:
/// each is one cluster's record stream, in the order it was written.
/// This is how `hamr timeline` and `hamr explain` both take a
/// directory.
pub fn read_journal_tree(dir: &Path) -> Result<Vec<JournalRead>, String> {
    let own = read_journal(dir)?;
    if !own.holds_nothing() {
        return Ok(vec![own]);
    }
    let mut subs: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    subs.sort();
    Ok(subs
        .iter()
        .filter_map(|sub| read_journal(sub).ok())
        .filter(|read| !read.holds_nothing())
        .collect())
}
