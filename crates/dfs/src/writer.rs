//! Block-building writer for DFS files.

use crate::{Dfs, DfsError, NodeId, PACKET_SIZE};

/// Streams records into a DFS file, sealing a block whenever the next
/// record would overflow [`crate::DfsConfig::block_size`]. A zero-length
/// record never overflows a block: it joins the one at hand, and a file
/// of no bytes at all has no block to hold its records.
///
/// Call [`DfsWriter::seal`] to flush the final partial block and make
/// the file durable; dropping without sealing *loses* the unfinished
/// block (matching the visibility rules of real HDFS writers closely
/// enough for our purposes). A block that cannot be stored — the file
/// was deleted under the writer — fails the writer: later records are
/// dropped and `seal` returns that first error, as HDFS's `close()`
/// throws.
pub struct DfsWriter {
    dfs: Dfs,
    path: String,
    local: Option<NodeId>,
    buf: Vec<u8>,
    records: usize,
    /// Where the buffered block's packets start.
    packets: Vec<usize>,
    error: Option<DfsError>,
}

impl DfsWriter {
    pub(crate) fn new(dfs: Dfs, path: String, local: Option<NodeId>) -> Self {
        let cap = dfs.config().block_size;
        DfsWriter {
            dfs,
            path,
            local,
            buf: Vec::with_capacity(cap),
            records: 0,
            packets: Vec::new(),
            error: None,
        }
    }

    /// Append one whole record; never split across blocks.
    pub fn write_record(&mut self, record: &[u8]) {
        self.append(&[record]);
    }

    /// Append a text line (adds the trailing newline) as one record.
    pub fn write_line(&mut self, line: &str) {
        self.append(&[line.as_bytes(), b"\n"]);
    }

    /// Append the record made of `parts`, flushing the block first when
    /// the record would overflow it.
    fn append(&mut self, parts: &[&[u8]]) {
        if self.error.is_some() {
            return;
        }
        let block_size = self.dfs.config().block_size;
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > 0 && !self.buf.is_empty() && self.buf.len() + len > block_size {
            self.flush_block();
        }
        // The record opens a packet when the open one holds bytes and
        // cannot take it whole within PACKET_SIZE, so one longer than
        // that is a packet of its own. An empty record opens none, so
        // packet starts increase strictly and no packet is empty.
        let at = self.buf.len();
        let open = self.packets.last().map_or(0, |&start| at - start);
        if self.packets.is_empty() || (open > 0 && len > 0 && open + len > PACKET_SIZE) {
            self.packets.push(at);
        }
        for part in parts {
            self.buf.extend_from_slice(part);
        }
        self.records += 1;
    }

    /// Store the buffered block, keeping the writer's first error.
    fn flush_block(&mut self) {
        if self.buf.is_empty() || self.error.is_some() {
            return;
        }
        let (id, replicas) = self.dfs.place_block(self.local);
        let payload = std::mem::take(&mut self.buf);
        let records = std::mem::take(&mut self.records);
        let packets = std::mem::take(&mut self.packets);
        self.error = self
            .dfs
            .store_block(&self.path, id, &replicas, records, packets, &payload)
            .err();
    }

    /// Flush the final block and finish the file; the first error any
    /// block met, if one did.
    pub fn seal(mut self) -> Result<(), DfsError> {
        self.flush_block();
        self.error.map_or(Ok(()), Err)
    }
}
