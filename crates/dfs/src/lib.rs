//! A miniature distributed file system over [`hamr_simdisk`] disks.
//!
//! Stands in for HDFS in the reproduction. Files are sequences of
//! fixed-capacity **blocks**; each block is replicated onto `replication`
//! distinct node disks; readers and task schedulers can ask for a
//! block's **locations** to exploit locality, exactly how Hadoop assigns
//! map tasks to the node holding the split.
//!
//! A block's replicas are written together, like HDFS's replica
//! pipeline: the writer submits the block to every replica's disk and
//! waits once, for the last of them, before it starts the next block.
//!
//! One simplification relative to HDFS: block boundaries fall on
//! *record* boundaries. [`DfsWriter::write_record`] never splits a
//! record across blocks, so a split (= one block) is always a whole
//! number of records and readers need no line-reassembly protocol. The
//! locality and IO-volume behaviour — the things the evaluation depends
//! on — are unaffected.
//!
//! A block moves in **packets**, as HDFS's do: runs of whole records of
//! at most [`PACKET_SIZE`] bytes (a longer record is a packet of its
//! own). The writer records where each packet starts
//! ([`BlockMeta::packets`]); a reader can then take a block packet by
//! packet as it arrives off the disk ([`Dfs::read_ahead_prefix`],
//! [`Dfs::read_range`]) instead of waiting for the whole block, while
//! the disk still books, charges and counts the block as one read.

mod writer;

pub use writer::DfsWriter;

use hamr_simdisk::{sleep_until, Disk, DiskError};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Node index within the cluster, matching `hamr_simnet::NodeId`.
pub type NodeId = usize;

/// Most bytes of one packet, unless a single record is longer: HDFS's
/// 64 KiB.
pub const PACKET_SIZE: usize = 64 << 10;

/// DFS tuning parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfsConfig {
    /// Capacity of one block in bytes.
    pub block_size: usize,
    /// Number of replicas per block (clamped to cluster size).
    pub replication: usize,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            // Scaled-down stand-in for HDFS's 128 MB.
            block_size: 1 << 20,
            replication: 2,
        }
    }
}

/// Errors from namespace operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    NotFound(String),
    AlreadyExists(String),
    Disk(DiskError),
    /// Block index out of range for the file.
    NoSuchBlock {
        path: String,
        block: usize,
    },
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::NotFound(p) => write!(f, "dfs file not found: {p}"),
            DfsError::AlreadyExists(p) => write!(f, "dfs file already exists: {p}"),
            DfsError::Disk(e) => write!(f, "disk error: {e}"),
            DfsError::NoSuchBlock { path, block } => {
                write!(f, "no block {block} in {path}")
            }
        }
    }
}

impl std::error::Error for DfsError {}

impl From<DiskError> for DfsError {
    fn from(e: DiskError) -> Self {
        DfsError::Disk(e)
    }
}

/// Metadata for one stored block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Globally unique block id; the backing disk file is
    /// `dfs.blk.<id>` on every replica.
    pub id: u64,
    /// Payload length in bytes.
    pub len: usize,
    /// Number of whole records, when written via `write_record`.
    pub records: usize,
    /// Nodes holding a replica; first is the primary (write-local) one.
    pub replicas: Vec<NodeId>,
    /// Where each packet starts, in increasing order from 0: packet `i`
    /// is `packets[i]..packets[i + 1]` (the last one ends at `len`).
    /// Every start is a record boundary.
    pub packets: Vec<usize>,
}

impl BlockMeta {
    pub(crate) fn disk_name(id: u64) -> String {
        format!("dfs.blk.{id}")
    }

    /// The block's packets, as byte ranges that cover it in order.
    pub fn packet_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let ends = self.packets.iter().skip(1).copied().chain([self.len]);
        self.packets
            .iter()
            .zip(ends)
            .map(|(&start, end)| start..end)
    }
}

#[derive(Debug, Clone, Default)]
struct FileMeta {
    blocks: Vec<BlockMeta>,
}

/// An input split: one block plus where it lives. What loaders and map
/// tasks are scheduled against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    pub path: String,
    pub block_index: usize,
    pub len: usize,
    pub records: usize,
    pub locations: Vec<NodeId>,
}

struct DfsInner {
    config: DfsConfig,
    disks: Vec<Disk>,
    namespace: RwLock<BTreeMap<String, FileMeta>>,
    next_block: AtomicU64,
    next_placement: AtomicU64,
}

/// Shared DFS handle. Clone freely.
#[derive(Clone)]
pub struct Dfs {
    inner: Arc<DfsInner>,
}

impl Dfs {
    /// Build a DFS over one disk per cluster node.
    pub fn new(disks: Vec<Disk>, config: DfsConfig) -> Self {
        assert!(!disks.is_empty(), "dfs needs at least one disk");
        assert!(config.block_size > 0, "block size must be positive");
        assert!(config.replication > 0, "replication must be positive");
        Dfs {
            inner: Arc::new(DfsInner {
                config,
                disks,
                namespace: RwLock::new(BTreeMap::new()),
                next_block: AtomicU64::new(0),
                next_placement: AtomicU64::new(0),
            }),
        }
    }

    /// Convenience: a DFS over `n` fresh instant disks (tests).
    pub fn in_memory(n: usize) -> Self {
        Dfs::new(
            (0..n).map(|_| Disk::new(Default::default())).collect(),
            DfsConfig::default(),
        )
    }

    pub fn cluster_size(&self) -> usize {
        self.inner.disks.len()
    }

    pub fn config(&self) -> &DfsConfig {
        &self.inner.config
    }

    /// Direct handle to a node's disk (loaders use this for node-local IO).
    pub fn disk(&self, node: NodeId) -> &Disk {
        &self.inner.disks[node]
    }

    /// Create a file, placing primary replicas round-robin.
    pub fn create(&self, path: &str) -> Result<DfsWriter, DfsError> {
        self.create_from(path, None)
    }

    /// Create a file whose primary replicas go to `local` (the HDFS
    /// "writer's node gets the first replica" rule).
    pub fn create_from(&self, path: &str, local: Option<NodeId>) -> Result<DfsWriter, DfsError> {
        {
            let mut ns = self.inner.namespace.write();
            if ns.contains_key(path) {
                return Err(DfsError::AlreadyExists(path.to_string()));
            }
            ns.insert(path.to_string(), FileMeta::default());
        }
        Ok(DfsWriter::new(self.clone(), path.to_string(), local))
    }

    pub fn exists(&self, path: &str) -> bool {
        self.inner.namespace.read().contains_key(path)
    }

    /// Total logical length of a file.
    pub fn len(&self, path: &str) -> Result<usize, DfsError> {
        Ok(self.blocks(path)?.iter().map(|b| b.len).sum())
    }

    /// True when the namespace has no files.
    pub fn is_empty(&self) -> bool {
        self.inner.namespace.read().is_empty()
    }

    /// Block metadata for a file.
    pub fn blocks(&self, path: &str) -> Result<Vec<BlockMeta>, DfsError> {
        self.inner
            .namespace
            .read()
            .get(path)
            .map(|m| m.blocks.clone())
            .ok_or_else(|| DfsError::NotFound(path.to_string()))
    }

    /// Input splits (one per block) with replica locations.
    pub fn splits(&self, path: &str) -> Result<Vec<Split>, DfsError> {
        Ok(self
            .blocks(path)?
            .into_iter()
            .enumerate()
            .map(|(i, b)| Split {
                path: path.to_string(),
                block_index: i,
                len: b.len,
                records: b.records,
                locations: b.replicas,
            })
            .collect())
    }

    /// The replica node a read of `path`'s block `block_index` goes to —
    /// `prefer` when it holds one, else the primary — and the block id.
    fn locate(
        &self,
        path: &str,
        block_index: usize,
        prefer: Option<NodeId>,
    ) -> Result<(NodeId, u64), DfsError> {
        let namespace = self.inner.namespace.read();
        let file = namespace
            .get(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
        let meta = file.blocks.get(block_index).ok_or(DfsError::NoSuchBlock {
            path: path.to_string(),
            block: block_index,
        })?;
        let node = match prefer {
            Some(p) if meta.replicas.contains(&p) => p,
            _ => meta.replicas[0],
        };
        Ok((node, meta.id))
    }

    /// Read one block's payload, preferring a replica on `prefer`.
    /// Charges the chosen replica's disk.
    pub fn read_block(
        &self,
        path: &str,
        block_index: usize,
        prefer: Option<NodeId>,
    ) -> Result<Arc<Vec<u8>>, DfsError> {
        self.read_range(path, block_index, prefer, 0..usize::MAX)
    }

    /// Submit now the disk read that the same
    /// [`read_block`](Dfs::read_block) call will wait for, so the
    /// device works while the caller finishes something else, and
    /// return when the block will be in memory (see
    /// [`Disk::read_ahead`]). Advisory: a missing file or block is a
    /// no-op here (`None`, as on an instant disk) and an error from the
    /// read.
    pub fn read_ahead(
        &self,
        path: &str,
        block_index: usize,
        prefer: Option<NodeId>,
    ) -> Option<Instant> {
        self.read_ahead_prefix(path, block_index, prefer, usize::MAX)
    }

    /// [`read_ahead`](Dfs::read_ahead) a block and say when its first
    /// `prefix` bytes will be in memory (see
    /// [`Disk::read_ahead_prefix`]): the instant a reader may take the
    /// packet that ends there.
    pub fn read_ahead_prefix(
        &self,
        path: &str,
        block_index: usize,
        prefer: Option<NodeId>,
        prefix: usize,
    ) -> Option<Instant> {
        let (node, id) = self.locate(path, block_index, prefer).ok()?;
        self.inner.disks[node].read_ahead_prefix(&BlockMeta::disk_name(id), prefix)
    }

    /// Take `range` of a block — a packet — out of the block's one
    /// read, waiting only until that range has arrived (see
    /// [`Disk::read_range`]). Returns the whole block's bytes, of which
    /// the caller looks at `range`. A block taken in packets that cover
    /// it, in any order, is charged and counted as one read.
    pub fn read_range(
        &self,
        path: &str,
        block_index: usize,
        prefer: Option<NodeId>,
        range: Range<usize>,
    ) -> Result<Arc<Vec<u8>>, DfsError> {
        let (node, id) = self.locate(path, block_index, prefer)?;
        Ok(self.inner.disks[node].read_range(&BlockMeta::disk_name(id), range)?)
    }

    /// Delete a file and all its block replicas.
    pub fn delete(&self, path: &str) -> Result<(), DfsError> {
        let meta = self
            .inner
            .namespace
            .write()
            .remove(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
        for block in &meta.blocks {
            let name = BlockMeta::disk_name(block.id);
            for &node in &block.replicas {
                self.inner.disks[node].delete(&name);
            }
        }
        Ok(())
    }

    /// All paths with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.inner
            .namespace
            .read()
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Read an entire file's payload as one buffer (small files only).
    pub fn read_all(&self, path: &str) -> Result<Vec<u8>, DfsError> {
        let blocks = self.blocks(path)?;
        let mut out = Vec::with_capacity(blocks.iter().map(|b| b.len).sum());
        for (i, _) in blocks.iter().enumerate() {
            out.extend_from_slice(&self.read_block(path, i, None)?);
        }
        Ok(out)
    }

    /// Allocate an id and replica set for a new block.
    pub(crate) fn place_block(&self, local: Option<NodeId>) -> (u64, Vec<NodeId>) {
        let n = self.cluster_size();
        let id = self.inner.next_block.fetch_add(1, Ordering::Relaxed);
        let primary = match local {
            Some(node) => node % n,
            None => (self.inner.next_placement.fetch_add(1, Ordering::Relaxed) as usize) % n,
        };
        let replication = self.inner.config.replication.min(n);
        let replicas = (0..replication).map(|k| (primary + k) % n).collect();
        (id, replicas)
    }

    /// Store a sealed block on every replica at once — one device time,
    /// not one per replica — and record it. A store that fails (the file
    /// was deleted, a disk refused the block) deletes the replicas it
    /// booked; their device time stays spent.
    pub(crate) fn store_block(
        &self,
        path: &str,
        id: u64,
        replicas: &[NodeId],
        records: usize,
        packets: Vec<usize>,
        payload: &[u8],
    ) -> Result<(), DfsError> {
        let not_found = || DfsError::NotFound(path.to_string());
        if !self.exists(path) {
            return Err(not_found());
        }
        let name = BlockMeta::disk_name(id);
        let drop_replicas = |booked: &[NodeId]| {
            for &node in booked {
                self.inner.disks[node].delete(&name);
            }
        };
        let mut done = None;
        for (k, &node) in replicas.iter().enumerate() {
            let booked = self.inner.disks[node].submit_write(&name, payload);
            done = done.max(booked.inspect_err(|_| drop_replicas(&replicas[..k]))?);
        }
        if let Some(ready_at) = done {
            sleep_until(ready_at);
        }
        let mut ns = self.inner.namespace.write();
        let Some(meta) = ns.get_mut(path) else {
            drop(ns);
            drop_replicas(replicas);
            return Err(not_found());
        };
        meta.blocks.push(BlockMeta {
            id,
            len: payload.len(),
            records,
            replicas: replicas.to_vec(),
            packets,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dfs(n: usize, block_size: usize, replication: usize) -> Dfs {
        Dfs::new(
            (0..n).map(|_| Disk::new(Default::default())).collect(),
            DfsConfig {
                block_size,
                replication,
            },
        )
    }

    #[test]
    fn write_read_roundtrip_single_block() {
        let dfs = Dfs::in_memory(3);
        let mut w = dfs.create("f").unwrap();
        w.write_record(b"hello");
        w.write_record(b" world");
        w.seal().unwrap();
        assert_eq!(dfs.read_all("f").unwrap(), b"hello world");
        assert_eq!(dfs.len("f").unwrap(), 11);
    }

    #[test]
    fn records_never_split_across_blocks() {
        let dfs = small_dfs(3, 10, 1);
        let mut w = dfs.create("f").unwrap();
        for _ in 0..5 {
            w.write_record(b"1234567"); // 7 bytes; only one fits per 10-byte block
        }
        w.seal().unwrap();
        let blocks = dfs.blocks("f").unwrap();
        assert_eq!(blocks.len(), 5);
        for b in &blocks {
            assert_eq!(b.len, 7);
            assert_eq!(b.records, 1);
        }
        assert_eq!(dfs.read_all("f").unwrap().len(), 35);
    }

    #[test]
    fn oversized_record_gets_own_block() {
        let dfs = small_dfs(2, 4, 1);
        let mut w = dfs.create("f").unwrap();
        w.write_record(b"ab");
        w.write_record(b"0123456789"); // bigger than block size
        w.write_record(b"cd");
        w.seal().unwrap();
        let blocks = dfs.blocks("f").unwrap();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[1].len, 10);
        assert_eq!(dfs.read_all("f").unwrap(), b"ab0123456789cd");
    }

    #[test]
    fn replication_places_on_distinct_nodes() {
        let dfs = small_dfs(4, 1024, 3);
        let mut w = dfs.create("f").unwrap();
        w.write_record(b"data");
        w.seal().unwrap();
        let blocks = dfs.blocks("f").unwrap();
        assert_eq!(blocks[0].replicas.len(), 3);
        let mut sorted = blocks[0].replicas.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "replicas must be distinct nodes");
    }

    #[test]
    fn replication_clamped_to_cluster_size() {
        let dfs = small_dfs(2, 1024, 5);
        let mut w = dfs.create("f").unwrap();
        w.write_record(b"x");
        w.seal().unwrap();
        assert_eq!(dfs.blocks("f").unwrap()[0].replicas.len(), 2);
    }

    #[test]
    fn local_writer_gets_primary_replica() {
        let dfs = small_dfs(4, 16, 2);
        let mut w = dfs.create_from("f", Some(2)).unwrap();
        w.write_record(b"0123456789abcde"); // one block
        w.write_record(b"0123456789abcde"); // second block
        w.seal().unwrap();
        for b in dfs.blocks("f").unwrap() {
            assert_eq!(b.replicas[0], 2);
        }
    }

    #[test]
    fn round_robin_spreads_primaries() {
        let dfs = small_dfs(4, 8, 1);
        let mut w = dfs.create("f").unwrap();
        for _ in 0..8 {
            w.write_record(b"1234567"); // one record per block
        }
        w.seal().unwrap();
        let primaries: std::collections::BTreeSet<_> = dfs
            .blocks("f")
            .unwrap()
            .iter()
            .map(|b| b.replicas[0])
            .collect();
        assert!(
            primaries.len() >= 2,
            "primaries should spread: {primaries:?}"
        );
    }

    #[test]
    fn splits_report_locations_and_records() {
        let dfs = small_dfs(3, 8, 2);
        let mut w = dfs.create("f").unwrap();
        for _ in 0..6 {
            w.write_record(b"abc"); // two 3-byte records per 8-byte block
        }
        w.seal().unwrap();
        let splits = dfs.splits("f").unwrap();
        assert_eq!(splits.len(), 3);
        for s in &splits {
            assert_eq!(s.records, 2);
            assert_eq!(s.len, 6);
            assert_eq!(s.locations.len(), 2);
        }
    }

    #[test]
    fn read_block_prefers_local_replica() {
        let dfs = small_dfs(3, 1024, 2);
        let mut w = dfs.create_from("f", Some(0)).unwrap();
        w.write_record(b"payload");
        w.seal().unwrap();
        let replicas = dfs.blocks("f").unwrap()[0].replicas.clone();
        let other = replicas[1];
        let before = dfs.disk(other).metrics().bytes_read;
        let _ = dfs.read_block("f", 0, Some(other)).unwrap();
        assert_eq!(
            dfs.disk(other).metrics().bytes_read - before,
            7,
            "preferred replica's disk should serve the read"
        );
    }

    #[test]
    fn read_ahead_books_the_replica_read_block_will_use() {
        use hamr_simdisk::DiskConfig;
        use std::time::{Duration, Instant};
        // 30 KB blocks on 1 MB/s disks: 30 ms of device time each.
        let disks: Vec<Disk> = (0..2)
            .map(|_| Disk::new(DiskConfig::modeled(1_000_000, Duration::ZERO)))
            .collect();
        let dfs = Dfs::new(
            disks,
            DfsConfig {
                block_size: 30_000,
                replication: 2,
            },
        );
        for path in ["f", "g"] {
            let mut w = dfs.create_from(path, Some(0)).unwrap();
            w.write_record(&[7u8; 30_000]);
            w.seal().unwrap();
        }
        let start = Instant::now();
        let ready_at = dfs.read_ahead("f", 0, Some(1)).expect("booked");
        assert!(ready_at >= start + Duration::from_millis(30));
        assert_eq!(dfs.read_ahead("f", 9, None), None, "no such block");
        assert_eq!(dfs.read_ahead("nope", 0, None), None);
        // The booking occupies node 1's spindle: a demand read there
        // queues behind it; node 0's disk was never asked.
        dfs.read_block("g", 0, Some(1)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(60));
        // The same call that was booked consumes it and counts once.
        dfs.read_block("f", 0, Some(1)).unwrap();
        assert_eq!(dfs.disk(1).metrics().read_ops, 2);
        assert_eq!(dfs.disk(1).metrics().bytes_read, 60_000);
        assert_eq!(dfs.disk(0).metrics().read_ops, 0);
    }

    #[test]
    fn delete_removes_blocks_from_disks() {
        let dfs = small_dfs(2, 16, 2);
        let mut w = dfs.create("f").unwrap();
        w.write_record(b"0123456789");
        w.seal().unwrap();
        assert!(dfs.disk(0).used_bytes() + dfs.disk(1).used_bytes() > 0);
        dfs.delete("f").unwrap();
        assert!(!dfs.exists("f"));
        assert_eq!(dfs.disk(0).used_bytes() + dfs.disk(1).used_bytes(), 0);
    }

    #[test]
    fn duplicate_create_fails() {
        let dfs = Dfs::in_memory(2);
        dfs.create("f").unwrap().seal().unwrap();
        assert!(matches!(dfs.create("f"), Err(DfsError::AlreadyExists(_))));
    }

    #[test]
    fn missing_file_errors() {
        let dfs = Dfs::in_memory(2);
        assert!(matches!(dfs.read_all("nope"), Err(DfsError::NotFound(_))));
        assert!(matches!(dfs.delete("nope"), Err(DfsError::NotFound(_))));
        assert!(matches!(
            dfs.read_block("nope", 0, None),
            Err(DfsError::NotFound(_))
        ));
    }

    #[test]
    fn out_of_range_block_errors() {
        let dfs = Dfs::in_memory(2);
        let mut w = dfs.create("f").unwrap();
        w.write_record(b"x");
        w.seal().unwrap();
        assert!(matches!(
            dfs.read_block("f", 5, None),
            Err(DfsError::NoSuchBlock { .. })
        ));
    }

    #[test]
    fn list_filters_by_prefix() {
        let dfs = Dfs::in_memory(1);
        for p in ["a/1", "a/2", "b/1"] {
            dfs.create(p).unwrap().seal().unwrap();
        }
        assert_eq!(dfs.list("a/"), vec!["a/1", "a/2"]);
        assert_eq!(dfs.list(""), vec!["a/1", "a/2", "b/1"]);
    }

    #[test]
    fn empty_file_has_no_blocks() {
        let dfs = Dfs::in_memory(2);
        dfs.create("f").unwrap().seal().unwrap();
        assert!(dfs.blocks("f").unwrap().is_empty());
        assert_eq!(dfs.read_all("f").unwrap(), Vec::<u8>::new());
        assert!(dfs.splits("f").unwrap().is_empty());
    }
}
