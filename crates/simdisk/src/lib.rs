//! Per-node local disk model.
//!
//! The paper's cluster has SATA-III local disks, and the whole
//! HAMR-vs-Hadoop comparison hinges on how many bytes each engine pushes
//! through them (map-side sort spills, shuffle files, inter-job
//! intermediates for Hadoop; reduce-side overflow spills for HAMR).
//!
//! This crate substitutes a *modeled* disk: bytes are retained in RAM
//! (deterministic, no filesystem flakiness, no page-cache distortion at
//! our scaled-down sizes) but every read and write charges wall-clock
//! time against a single-spindle serialization model. An IO has two
//! moments, **submission** (the spindle's timeline is booked) and
//! **completion** (the caller may have the bytes):
//!
//! ```text
//! submit:    start      = max(now, disk_busy_until)
//!            busy_until = start + op_latency + bytes / bandwidth
//!            ready_at   = busy_until            (Throttle::reserve)
//! complete:  caller sleeps until ready_at       (sleep_until)
//! ```
//!
//! so concurrent tasks on one node contend for their disk exactly as
//! Hadoop's map spills contend for a real spindle. Demand reads submit
//! and complete in one call. [`Disk::read_ahead`] only submits and
//! returns `ready_at`, and the [`Disk::read_all`] that follows only
//! completes: it waits for what is left of `ready_at`, so a caller that
//! had other work to do meanwhile — or a scheduler that holds the
//! reader back until `ready_at` — never sleeps on the device.
//! Asynchronous completion without an IO thread or a callback, because
//! the device is a timeline, not a thread: when an IO will be done is
//! known the moment it is submitted.
//! A booking holds no memory: the "read-ahead buffer" is the `Arc` the
//! RAM-backed disk already holds, handed out at completion (a real
//! engine would hold one block per loader per node).
//!
//! A booked read also says when each *prefix* of it is in memory. The
//! transfer is sequential from `start = ready_at - io_time(len)`, so
//! the first `n` bytes have arrived at
//!
//! ```text
//! arrival(n) = start + op_latency × ⌈n / 1 MiB⌉ + n / bandwidth
//! ```
//!
//! (`arrival(len) == ready_at`). [`Disk::read_ahead_prefix`] books the
//! whole file as `read_ahead` does and answers `arrival(n)`;
//! [`Disk::read_range`] waits only for the end of its range. A file read
//! in several ranges is one read all the same: booked once, charged
//! once, counted once — by the range that starts at byte 0 — and its
//! booking retires when every byte has been read. Nothing about the
//! device changes: its timeline, bytes, ops and busy time are those of
//! the whole-file read.
//!
//! Writes have the same two halves and one path.
//! [`Disk::submit_write`] publishes the bytes (readable at once),
//! counts them and books the spindle; [`sleep_until`] its `ready_at`
//! completes it, and [`Disk::write_all`] is the two in one call. A
//! spill run or a map output is read back or shipped next, so its
//! writer submits and completes at once; a DFS block submits on every
//! replica's disk and completes once, at the latest `ready_at` — the
//! replicas are on the device together, like HDFS's write pipeline.
//! `DiskConfig::instant()` disables all charging for correctness tests
//! and never books anything.

mod throttle;

pub use throttle::{sleep_until, Throttle};

use hamr_trace::{Counter, EventKind, Gauge, Labels, Observe, Tracer, WORKER_DISK};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Disk timing model.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskConfig {
    /// Sequential bandwidth in bytes/second shared by reads and writes.
    /// `None` = unlimited (no sleeping).
    pub bandwidth: Option<u64>,
    /// Fixed cost per IO operation (seek + syscall), charged once per
    /// 1 MiB chunk.
    pub op_latency: Duration,
}

/// IO is charged in chunks of this many bytes; one `op_latency` per
/// chunk. Mirrors block-sized transfers.
const CHUNK_SIZE: usize = 1 << 20;

impl DiskConfig {
    /// No time charging at all.
    pub fn instant() -> Self {
        DiskConfig {
            bandwidth: None,
            op_latency: Duration::ZERO,
        }
    }

    /// A throttled disk with the given sequential bandwidth.
    pub fn modeled(bandwidth_bytes_per_sec: u64, op_latency: Duration) -> Self {
        DiskConfig {
            bandwidth: Some(bandwidth_bytes_per_sec),
            op_latency,
        }
    }

    /// True when no throttle thread state is needed.
    pub fn is_instant(&self) -> bool {
        self.bandwidth.is_none() && self.op_latency.is_zero()
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig::instant()
    }
}

/// Errors from disk operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// Named file does not exist.
    NotFound(String),
    /// A file with this name already exists.
    AlreadyExists(String),
    /// A file ends inside the record that starts at byte `offset`.
    Truncated { file: String, offset: u64 },
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::NotFound(n) => write!(f, "file not found: {n}"),
            DiskError::AlreadyExists(n) => write!(f, "file already exists: {n}"),
            DiskError::Truncated { file, offset } => {
                write!(
                    f,
                    "file {file} is truncated inside the record at byte {offset}"
                )
            }
        }
    }
}

impl std::error::Error for DiskError {}

/// IO counters for one disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskMetrics {
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub write_ops: u64,
    pub read_ops: u64,
}

#[derive(Default)]
struct MetricsInner {
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    write_ops: AtomicU64,
    read_ops: AtomicU64,
}

/// What [`Disk::observe`] bound for the current run; every part is a
/// no-op by default.
#[derive(Default)]
struct DiskObs {
    tracer: Tracer,
    node: u32,
    /// Gauge mirroring bytes resident on this disk.
    used: Gauge,
    /// Live registry series: byte and op counters per direction.
    read_bytes: Counter,
    write_bytes: Counter,
    read_ops: Counter,
    write_ops: Counter,
}

struct DiskInner {
    config: DiskConfig,
    files: RwLock<HashMap<String, Arc<Vec<u8>>>>,
    throttle: Throttle,
    /// Reads submitted to the device and not yet wholly read: file name
    /// → the booking. Never touched by an instant disk.
    bookings: Mutex<HashMap<String, Booked>>,
    metrics: MetricsInner,
    temp_counter: AtomicU64,
    /// Fast-path flag mirroring "a run is observing this disk", so
    /// unobserved IO pays one load instead of an RwLock acquisition.
    observed: AtomicBool,
    obs: RwLock<DiskObs>,
}

/// A whole-file read on the device's timeline.
#[derive(Debug, Clone)]
struct Booked {
    /// When the device will have finished it.
    ready_at: Instant,
    /// The disjoint ranges [`Disk::read_range`] has taken of it; the
    /// booking retires once they cover the file.
    taken: Vec<Range<usize>>,
}

/// One node's local disk. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Disk {
    inner: Arc<DiskInner>,
}

impl Disk {
    pub fn new(config: DiskConfig) -> Self {
        Disk {
            inner: Arc::new(DiskInner {
                throttle: Throttle::new(),
                config,
                files: RwLock::new(HashMap::new()),
                bookings: Mutex::new(HashMap::new()),
                metrics: MetricsInner::default(),
                temp_counter: AtomicU64::new(0),
                observed: AtomicBool::new(false),
                obs: RwLock::new(DiskObs::default()),
            }),
        }
    }

    /// Bind this disk to one run's sinks, attributed to cluster node
    /// `node`. Disks are long-lived substrates, so the driver binds
    /// before a run and calls [`unobserve`](Disk::unobserve) after.
    ///
    /// * an enabled `obs.tracer` gets a `DiskRead` event when a read is
    ///   submitted to the device (for a read-ahead, before any task
    ///   waits on it) and a `DiskWrite` event when a write is;
    /// * the run's registry gets a `disk_used_bytes` gauge, seeded with
    ///   the current usage so seal/delete deltas stay exact, and
    ///   `disk_{read,write}_{bytes,ops}_total` counters. Counters are
    ///   cumulative and shared across binds, so the series covers all
    ///   IO performed while any run of that engine observed the disk.
    pub fn observe(&self, obs: &Observe, node: u32) {
        let used = obs.gauge("disk_used_bytes", Labels::new().node(node));
        used.set(self.used_bytes() as i64);
        let counter = |name| obs.counter(name, Labels::new().node(node));
        *self.inner.obs.write() = DiskObs {
            tracer: obs.tracer.clone(),
            node,
            used,
            read_bytes: counter("disk_read_bytes_total"),
            write_bytes: counter("disk_write_bytes_total"),
            read_ops: counter("disk_read_ops_total"),
            write_ops: counter("disk_write_ops_total"),
        };
        self.inner.observed.store(true, Ordering::Release);
    }

    /// Drop every binding [`observe`](Disk::observe) made.
    pub fn unobserve(&self) {
        self.inner.observed.store(false, Ordering::Release);
        *self.inner.obs.write() = DiskObs::default();
    }

    /// Report one submitted write of `bytes` in `ops` chunks to the run
    /// observing this disk, if any.
    fn observe_write(&self, bytes: usize, ops: u64) {
        if !self.inner.observed.load(Ordering::Acquire) {
            return;
        }
        let obs = self.inner.obs.read();
        let bytes = bytes as u64;
        obs.tracer
            .emit(obs.node, WORKER_DISK, EventKind::DiskWrite { bytes });
        obs.write_bytes.add(bytes);
        obs.write_ops.add(ops);
    }

    /// Device time of `bytes` of sequential IO.
    fn io_time(&self, bytes: usize) -> Duration {
        let cfg = &self.inner.config;
        if cfg.is_instant() {
            return Duration::ZERO;
        }
        let chunks = bytes.div_ceil(CHUNK_SIZE).max(1) as u32;
        let mut dur = cfg.op_latency * chunks;
        if let Some(bw) = cfg.bandwidth {
            dur += Duration::from_secs_f64(bytes as f64 / bw as f64);
        }
        dur
    }

    /// Tell the observing run's tracer, if any, that a read of `bytes`
    /// was submitted to the device.
    fn trace_read(&self, bytes: usize) {
        if self.inner.observed.load(Ordering::Acquire) {
            let obs = self.inner.obs.read();
            let bytes = bytes as u64;
            obs.tracer
                .emit(obs.node, WORKER_DISK, EventKind::DiskRead { bytes });
        }
    }

    /// Submit a read of `bytes`: book the spindle and return when the
    /// device will have finished.
    fn submit_read(&self, bytes: usize) -> Instant {
        self.trace_read(bytes);
        self.inner.throttle.reserve(self.io_time(bytes))
    }

    /// Count one read of `bytes` — once per file read, however many
    /// ranges it is taken in.
    fn count_read(&self, bytes: usize) {
        let m = &self.inner.metrics;
        m.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
        m.read_ops.fetch_add(1, Ordering::Relaxed);
        if self.inner.observed.load(Ordering::Acquire) {
            let obs = self.inner.obs.read();
            obs.read_bytes.add(bytes as u64);
            obs.read_ops.inc();
        }
    }

    /// Wait for a submitted read to complete and count it.
    fn complete_read(&self, ready_at: Instant, bytes: usize) {
        sleep_until(ready_at);
        self.count_read(bytes);
    }

    /// When the first `prefix` bytes of a `len`-byte read that ends at
    /// `ready_at` are in memory: the module doc's `arrival(prefix)`.
    fn arrival(&self, ready_at: Instant, len: usize, prefix: usize) -> Instant {
        ready_at - self.io_time(len) + self.io_time(prefix.min(len))
    }

    fn file(&self, name: &str) -> Result<Arc<Vec<u8>>, DiskError> {
        let files = self.inner.files.read();
        files
            .get(name)
            .cloned()
            .ok_or_else(|| DiskError::NotFound(name.to_string()))
    }

    /// Open a file for reading.
    pub fn open(&self, name: &str) -> Result<FileReader, DiskError> {
        Ok(FileReader {
            disk: self.clone(),
            data: self.file(name)?,
            pos: 0,
        })
    }

    /// Read a whole file, charging for its full size. A read already
    /// submitted by [`read_ahead`](Disk::read_ahead) is consumed: the
    /// caller waits only for what is left of it and nothing is charged
    /// or counted twice.
    pub fn read_all(&self, name: &str) -> Result<Arc<Vec<u8>>, DiskError> {
        self.read_range(name, 0..usize::MAX)
    }

    /// Take `range` of a file (clamped to its length) out of the
    /// whole-file read: the booked one, else one submitted now. Waits
    /// until the range's last byte has arrived, and hands out the whole
    /// file's bytes, of which the caller may look at `range` — the rest
    /// may still be on the device. The read is counted, whole, by the
    /// range that starts at byte 0, and its booking retires once its
    /// ranges have covered the file, so a file taken in disjoint ranges
    /// that cover it costs what one `read_all` does, in any order.
    ///
    /// One consumer takes a booked file, in disjoint ranges: a second
    /// reader of the same booking (or a `read_all` after some of its
    /// ranges) would count the read twice and retire the booking early.
    /// Debug builds assert that no range is taken twice.
    pub fn read_range(&self, name: &str, range: Range<usize>) -> Result<Arc<Vec<u8>>, DiskError> {
        let data = self.file(name)?;
        let len = data.len();
        let (start, end) = (range.start.min(len), range.end.min(len));
        if self.inner.config.is_instant() {
            if start == 0 {
                self.count_read(len);
            }
            return Ok(data);
        }
        let ready_at = self.booking(name, len, Some(start..end.max(start)));
        sleep_until(self.arrival(ready_at, len, end));
        if start == 0 {
            self.count_read(len);
        }
        Ok(data)
    }

    /// Submit the read of a whole file now, for a
    /// [`read_all`](Disk::read_all) that will come, and say when the
    /// device will have finished it: the device works while the caller
    /// does something else, and the caller knows when to come back.
    /// Advisory — a file that does not exist and an instant disk are
    /// no-ops that return `None` (nothing to wait for; the read itself
    /// reports errors), and a file already booked keeps its booking and
    /// returns that instant. The bytes stay where they are (the disk's
    /// own `Arc`), so a booking holds no memory, and only `read_all`
    /// hands them out — after waiting for whatever is left.
    pub fn read_ahead(&self, name: &str) -> Option<Instant> {
        self.read_ahead_prefix(name, usize::MAX)
    }

    /// [`read_ahead`](Disk::read_ahead) the whole file, and say when
    /// its first `prefix` bytes will be in memory: for a
    /// [`read_range`](Disk::read_range) that ends there.
    pub fn read_ahead_prefix(&self, name: &str, prefix: usize) -> Option<Instant> {
        if self.inner.config.is_instant() {
            return None;
        }
        let len = self.len(name).ok()?;
        let ready_at = self.booking(name, len, None);
        Some(self.arrival(ready_at, len, prefix))
    }

    /// When the whole-file read of `name` (`len` bytes) ends: its
    /// booking's instant, booked now if there is none. A read that
    /// takes `range` of its bytes retires the booking once the ranges
    /// taken cover the file.
    fn booking(&self, name: &str, len: usize, range: Option<Range<usize>>) -> Instant {
        let (ready_at, submitted) = {
            let mut bookings = self.inner.bookings.lock();
            let submitted = !bookings.contains_key(name);
            if submitted {
                let ready_at = self.inner.throttle.reserve(self.io_time(len));
                let taken = Vec::new();
                bookings.insert(name.to_string(), Booked { ready_at, taken });
            }
            let booked = bookings.get_mut(name).expect("booked above");
            let ready_at = booked.ready_at;
            if let Some(range) = range {
                debug_assert!(
                    range.is_empty()
                        || booked
                            .taken
                            .iter()
                            .all(|t| t.end <= range.start || range.end <= t.start),
                    "{name}: {range:?} taken twice from one booked read"
                );
                booked.taken.push(range);
                if booked.taken.iter().map(|t| t.len()).sum::<usize>() >= len {
                    bookings.remove(name);
                }
            }
            (ready_at, submitted)
        };
        // Outside the lock: a trace sink may itself use this disk.
        if submitted {
            self.trace_read(len);
        }
        ready_at
    }

    /// Forget every read-ahead nobody consumed. Drivers call this when
    /// a job ends, however it ends, so that a booking never serves a
    /// later job's read for free. The device time stays spent.
    pub fn cancel_read_ahead(&self) {
        self.inner.bookings.lock().clear();
    }

    /// Submit the write of a whole file: publish the bytes (readable at
    /// once), count them — one op per started 1 MiB chunk — and book
    /// the spindle without sleeping. Returns when the device will have
    /// finished, or `None` when there is nothing to wait for (an
    /// instant disk, an empty file: neither books anything, and an
    /// empty file counts no op). Fails if the name exists.
    pub fn submit_write(&self, name: &str, data: &[u8]) -> Result<Option<Instant>, DiskError> {
        // Copied before the lock is taken: readers of other files on
        // this disk do not wait for the copy.
        let file = Arc::new(data.to_vec());
        {
            let mut files = self.inner.files.write();
            if files.contains_key(name) {
                return Err(DiskError::AlreadyExists(name.to_string()));
            }
            files.insert(name.to_string(), file);
        }
        self.inner.obs.read().used.add(data.len() as i64);
        if data.is_empty() {
            return Ok(None);
        }
        let ops = data.len().div_ceil(CHUNK_SIZE) as u64;
        let m = &self.inner.metrics;
        m.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        m.write_ops.fetch_add(ops, Ordering::Relaxed);
        // Outside the files lock: a trace sink may itself use this disk.
        self.observe_write(data.len(), ops);
        if self.inner.config.is_instant() {
            return Ok(None);
        }
        Ok(Some(self.inner.throttle.reserve(self.io_time(data.len()))))
    }

    /// Write a whole file: [`submit_write`](Disk::submit_write), then
    /// wait for the device.
    pub fn write_all(&self, name: &str, data: &[u8]) -> Result<(), DiskError> {
        if let Some(ready_at) = self.submit_write(name, data)? {
            sleep_until(ready_at);
        }
        Ok(())
    }

    /// Remove a file; succeeds silently if absent (like `rm -f`).
    pub fn delete(&self, name: &str) {
        if let Some(old) = self.inner.files.write().remove(name) {
            self.inner.obs.read().used.sub(old.len() as i64);
        }
        if !self.inner.config.is_instant() {
            self.inner.bookings.lock().remove(name);
        }
    }

    pub fn exists(&self, name: &str) -> bool {
        self.inner.files.read().contains_key(name)
    }

    /// Size in bytes of a file.
    pub fn len(&self, name: &str) -> Result<usize, DiskError> {
        self.inner
            .files
            .read()
            .get(name)
            .map(|d| d.len())
            .ok_or_else(|| DiskError::NotFound(name.to_string()))
    }

    /// True when the disk holds no files.
    pub fn is_empty(&self) -> bool {
        self.inner.files.read().is_empty()
    }

    /// All file names, unsorted.
    pub fn list(&self) -> Vec<String> {
        self.inner.files.read().keys().cloned().collect()
    }

    /// Total bytes stored.
    pub fn used_bytes(&self) -> usize {
        self.inner.files.read().values().map(|d| d.len()).sum()
    }

    /// A unique file name for spill/temp files.
    pub fn temp_name(&self, prefix: &str) -> String {
        let n = self.inner.temp_counter.fetch_add(1, Ordering::Relaxed);
        format!("{prefix}.tmp.{n}")
    }

    pub fn metrics(&self) -> DiskMetrics {
        let m = &self.inner.metrics;
        DiskMetrics {
            bytes_written: m.bytes_written.load(Ordering::Relaxed),
            bytes_read: m.bytes_read.load(Ordering::Relaxed),
            write_ops: m.write_ops.load(Ordering::Relaxed),
            read_ops: m.read_ops.load(Ordering::Relaxed),
        }
    }
}

/// Sequential reader over a file. Time is charged per `read`.
pub struct FileReader {
    disk: Disk,
    data: Arc<Vec<u8>>,
    pos: usize,
}

impl FileReader {
    /// Read up to `buf.len()` bytes; returns 0 at end of file.
    pub fn read(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.data.len() - self.pos);
        if n == 0 {
            return 0;
        }
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        self.disk.complete_read(self.disk.submit_read(n), n);
        n
    }

    /// Read the remainder of the file.
    pub fn read_to_end(&mut self) -> Vec<u8> {
        let rest = self.data[self.pos..].to_vec();
        if !rest.is_empty() {
            self.disk
                .complete_read(self.disk.submit_read(rest.len()), rest.len());
        }
        self.pos = self.data.len();
        rest
    }

    /// Bytes remaining past the cursor.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn write_seal_read_roundtrip() {
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all("a", b"hello world").unwrap();
        assert_eq!(disk.len("a").unwrap(), 11);
        let mut r = disk.open("a").unwrap();
        assert_eq!(r.read_to_end(), b"hello world");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn create_duplicate_fails() {
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all("a", b"x").unwrap();
        assert!(matches!(
            disk.write_all("a", b"y"),
            Err(DiskError::AlreadyExists(_))
        ));
        assert_eq!(disk.read_all("a").unwrap().as_slice(), b"x");
    }

    #[test]
    fn open_missing_fails() {
        let disk = Disk::new(DiskConfig::instant());
        assert!(matches!(disk.open("nope"), Err(DiskError::NotFound(_))));
        assert!(matches!(disk.len("nope"), Err(DiskError::NotFound(_))));
    }

    #[test]
    fn delete_then_recreate() {
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all("a", b"1").unwrap();
        disk.delete("a");
        assert!(!disk.exists("a"));
        disk.write_all("a", b"22").unwrap();
        assert_eq!(disk.len("a").unwrap(), 2);
    }

    #[test]
    fn partial_reads() {
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all("a", &[1, 2, 3, 4, 5]).unwrap();
        let mut r = disk.open("a").unwrap();
        let mut buf = [0u8; 2];
        assert_eq!(r.read(&mut buf), 2);
        assert_eq!(buf, [1, 2]);
        assert_eq!(r.read(&mut buf), 2);
        assert_eq!(buf, [3, 4]);
        assert_eq!(r.read(&mut buf), 1);
        assert_eq!(buf[0], 5);
        assert_eq!(r.read(&mut buf), 0);
    }

    #[test]
    fn metrics_track_io() {
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all("a", &[0u8; 100]).unwrap();
        let _ = disk.read_all("a").unwrap();
        let m = disk.metrics();
        assert_eq!(m.bytes_written, 100);
        assert_eq!(m.bytes_read, 100);
        assert!(m.write_ops >= 1);
        assert_eq!(m.read_ops, 1);
    }

    #[test]
    fn observed_registry_counts_io() {
        use hamr_trace::{MetricsRegistry, SampleValue};
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all("before", &[0u8; 64]).unwrap(); // uncounted
        let registry = MetricsRegistry::new();
        let obs = Observe {
            registry: Some(registry.clone()),
            engine: "hamr",
            ..Default::default()
        };
        let bind = || disk.observe(&obs, 2);
        bind();
        let labels = Labels::new().engine("hamr").node(2);
        let used = registry.gauge("disk_used_bytes", labels.clone());
        assert_eq!(used.get(), 64, "seeded with what the disk already holds");
        disk.write_all("a", &[0u8; 100]).unwrap();
        let _ = disk.read_all("a").unwrap();
        disk.delete("before");
        assert_eq!(used.get(), 100, "seal and delete move the gauge");
        let snap = registry.snapshot();
        assert!(matches!(
            snap.get("disk_write_bytes_total", &labels),
            Some(SampleValue::Counter(100))
        ));
        assert!(matches!(
            snap.get("disk_read_bytes_total", &labels),
            Some(SampleValue::Counter(100))
        ));
        assert!(matches!(
            snap.get("disk_read_ops_total", &labels),
            Some(SampleValue::Counter(1))
        ));
        disk.unobserve();
        disk.write_all("after", &[0u8; 32]).unwrap();
        assert_eq!(
            registry.snapshot().counter_total("disk_write_bytes_total"),
            100,
            "unobserved IO is not counted"
        );
        // Re-binding resumes the same cumulative series and re-seeds
        // the gauge with what unobserved IO left behind.
        bind();
        assert_eq!(used.get(), 132);
        disk.write_all("again", &[0u8; 10]).unwrap();
        assert_eq!(
            registry.snapshot().counter_total("disk_write_bytes_total"),
            110
        );
    }

    #[test]
    fn throttled_write_takes_time() {
        // 1 MB/s: 100 KB should take ~100 ms.
        let disk = Disk::new(DiskConfig::modeled(1_000_000, Duration::ZERO));
        let start = Instant::now();
        disk.write_all("a", &[0u8; 100_000]).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(90),
            "write returned too fast: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn throttled_reads_serialize_across_threads() {
        let disk = Disk::new(DiskConfig::modeled(1_000_000, Duration::ZERO));
        disk.write_all("a", &[0u8; 50_000]).unwrap();
        let start = Instant::now();
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let disk = disk.clone();
                std::thread::spawn(move || {
                    let _ = disk.read_all("a").unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Two 50 KB reads at 1 MB/s through one spindle: >= ~100 ms.
        assert!(
            start.elapsed() >= Duration::from_millis(90),
            "reads did not serialize: {:?}",
            start.elapsed()
        );
    }

    /// A 1 MB/s disk holding 30 KB files `a` and `b`: 30 ms per read.
    fn booked_disk() -> (Disk, Duration) {
        let disk = Disk::new(DiskConfig::modeled(1_000_000, Duration::ZERO));
        disk.write_all("a", &[0u8; 30_000]).unwrap();
        disk.write_all("b", &[0u8; 30_000]).unwrap();
        (disk, Duration::from_millis(30))
    }

    fn booking(disk: &Disk, name: &str) -> Option<Instant> {
        disk.inner.bookings.lock().get(name).map(|b| b.ready_at)
    }

    fn timeline_end(disk: &Disk) -> Instant {
        disk.inner
            .throttle
            .busy_until()
            .expect("something was charged")
    }

    #[test]
    fn read_ahead_books_without_sleeping_or_counting() {
        let (disk, block) = booked_disk();
        let before = Instant::now();
        let ready_at = disk.read_ahead("a").expect("booked");
        assert_eq!(booking(&disk, "a"), Some(ready_at));
        assert!(ready_at >= before + block);
        assert_eq!(timeline_end(&disk), ready_at);
        assert_eq!(disk.metrics().read_ops, 0, "counted at completion");
        assert_eq!(disk.metrics().bytes_read, 0);
    }

    #[test]
    fn consuming_a_finished_read_ahead_charges_one_block_not_two() {
        let (disk, _) = booked_disk();
        disk.read_ahead("a");
        let ready_at = booking(&disk, "a").unwrap();
        throttle::sleep_until(ready_at);
        assert_eq!(disk.read_all("a").unwrap().len(), 30_000);
        assert_eq!(timeline_end(&disk), ready_at, "nothing charged twice");
        assert!(booking(&disk, "a").is_none(), "consumed");
        let m = disk.metrics();
        assert_eq!((m.read_ops, m.bytes_read), (1, 30_000));
    }

    #[test]
    fn consuming_an_unfinished_read_ahead_waits_the_remainder() {
        let (disk, _) = booked_disk();
        disk.read_ahead("a");
        let ready_at = booking(&disk, "a").unwrap();
        disk.read_all("a").unwrap();
        assert!(Instant::now() >= ready_at, "returned before the device");
        assert_eq!(timeline_end(&disk), ready_at, "nothing charged twice");
    }

    #[test]
    fn demand_read_queues_behind_a_booking() {
        let (disk, block) = booked_disk();
        disk.read_ahead("a");
        let ready_at = booking(&disk, "a").unwrap();
        disk.read_all("b").unwrap();
        assert!(timeline_end(&disk) >= ready_at + block, "one spindle");
        assert!(Instant::now() >= ready_at + block);
        assert_eq!(booking(&disk, "a"), Some(ready_at), "still booked");
    }

    #[test]
    fn second_read_ahead_of_a_booked_file_returns_the_first_booking() {
        let (disk, _) = booked_disk();
        let ready_at = disk.read_ahead("a").unwrap();
        assert_eq!(disk.read_ahead("a"), Some(ready_at));
        assert_eq!(disk.read_ahead("missing"), None);
        assert_eq!(booking(&disk, "a"), Some(ready_at));
        assert_eq!(timeline_end(&disk), ready_at);
        assert_eq!(disk.inner.bookings.lock().len(), 1);
    }

    #[test]
    fn each_block_is_counted_once_booked_or_not() {
        let (disk, _) = booked_disk();
        disk.read_ahead("a");
        disk.read_all("a").unwrap(); // consumes the booking
        disk.read_all("a").unwrap(); // demand read
        disk.read_all("b").unwrap();
        let m = disk.metrics();
        assert_eq!((m.read_ops, m.bytes_read), (3, 90_000));
    }

    #[test]
    fn a_booked_read_arrives_prefix_by_prefix() {
        // 8 KB take 7.8125 ms at 1.024 MB/s, plus 2 ms for the one op:
        // every instant below is exact.
        let disk = Disk::new(DiskConfig::modeled(1_024_000, Duration::from_millis(2)));
        disk.write_all("a", &[0u8; 32_000]).unwrap();
        let ready_at = disk.read_ahead("a").unwrap();
        let start = ready_at - Duration::from_micros(2_000 + 31_250);
        let at = |n| disk.read_ahead_prefix("a", n).unwrap();
        for k in 1..4 {
            let arrival = Duration::from_nanos(2_000_000 + 7_812_500 * k);
            assert_eq!(at(8_000 * k as usize), start + arrival, "{k} x 8 KB");
        }
        assert_eq!(at(32_000), ready_at);
        assert_eq!(at(usize::MAX), ready_at);
        assert_eq!(disk.inner.bookings.lock().len(), 1, "booked once");
        assert_eq!(timeline_end(&disk), ready_at, "charged once");
    }

    #[test]
    fn a_file_read_in_ranges_is_one_read_in_any_order() {
        let (disk, _) = booked_disk();
        let ready_at = disk.read_ahead("a").unwrap();
        // The last range first: it ends where the whole read does.
        disk.read_range("a", 20_000..30_000).unwrap();
        assert!(Instant::now() >= ready_at);
        assert_eq!(disk.metrics().read_ops, 0, "counted by the range at 0");
        disk.read_range("a", 0..10_000).unwrap();
        assert_eq!(booking(&disk, "a"), Some(ready_at), "10 KB still unread");
        disk.read_range("a", 10_000..20_000).unwrap();
        assert!(booking(&disk, "a").is_none(), "retired once covered");
        assert_eq!(timeline_end(&disk), ready_at, "charged once");
        let m = disk.metrics();
        assert_eq!((m.read_ops, m.bytes_read), (1, 30_000));
        // An instant disk counts the same way and books nothing.
        let instant = Disk::new(DiskConfig::instant());
        instant.write_all("a", &[0u8; 100]).unwrap();
        for range in [50..100, 0..50] {
            assert_eq!(instant.read_range("a", range).unwrap().len(), 100);
        }
        let m = instant.metrics();
        assert_eq!((m.read_ops, m.bytes_read), (1, 100));
        assert_eq!(instant.inner.bookings.lock().capacity(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "taken twice")]
    fn a_booked_range_cannot_be_taken_twice() {
        let (disk, _) = booked_disk();
        disk.read_ahead("a").unwrap();
        disk.read_range("a", 0..10_000).unwrap();
        // A second reader of the same booking: its read_all overlaps
        // the range already taken.
        let _ = disk.read_all("a");
    }

    #[test]
    fn cancelled_or_deleted_bookings_serve_nobody() {
        let (disk, block) = booked_disk();
        disk.read_ahead("a");
        disk.read_ahead("b");
        disk.delete("b");
        assert!(booking(&disk, "b").is_none(), "deleted with its file");
        disk.cancel_read_ahead();
        assert!(disk.inner.bookings.lock().is_empty());
        // The next read of `a` is a demand read, charged in full.
        let end = timeline_end(&disk);
        disk.read_all("a").unwrap();
        assert!(timeline_end(&disk) >= end + block);
    }

    #[test]
    fn instant_disk_never_books() {
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all("a", &[0u8; 100]).unwrap();
        assert_eq!(disk.read_ahead("a"), None);
        disk.read_all("a").unwrap();
        disk.delete("a");
        assert_eq!(disk.inner.bookings.lock().capacity(), 0);
        assert!(disk.inner.throttle.busy_until().is_none());
    }

    #[test]
    fn a_submitted_write_books_without_sleeping_and_counts_once() {
        // 200 KB at 1 MB/s: 200 ms of device time.
        let disk = Disk::new(DiskConfig::modeled(1_000_000, Duration::ZERO));
        let block = Duration::from_millis(200);
        let before = Instant::now();
        let ready_at = disk.submit_write("a", &[5u8; 200_000]).unwrap().unwrap();
        assert!(Instant::now() < ready_at, "submit slept");
        assert!(ready_at >= before + block);
        assert_eq!(timeline_end(&disk), ready_at);
        // Published and counted at submission, before the device is done.
        let file = disk.inner.files.read().get("a").cloned().unwrap();
        assert_eq!(file.as_slice(), &[5u8; 200_000][..]);
        let m = disk.metrics();
        assert_eq!((m.write_ops, m.bytes_written), (1, 200_000));
        // A read booked after the write queues behind it on the spindle.
        assert!(disk.read_ahead("a").unwrap() >= ready_at + block);
        sleep_until(ready_at);
        assert_eq!(disk.metrics(), m, "counted once");
    }

    #[test]
    fn an_empty_write_books_nothing_and_counts_no_op() {
        let disk = Disk::new(DiskConfig::modeled(1_000_000, Duration::from_millis(5)));
        assert_eq!(disk.submit_write("e", &[]), Ok(None));
        disk.write_all("f", &[]).unwrap();
        assert!(disk.inner.throttle.busy_until().is_none());
        assert_eq!(disk.metrics(), DiskMetrics::default());
        assert_eq!(disk.len("e").unwrap(), 0);
        assert!(disk.exists("f"));
    }

    #[test]
    fn a_write_is_one_op_per_started_mib_and_books_their_latency() {
        let (op, bw) = (Duration::from_millis(10), 1u64 << 40);
        let disk = Disk::new(DiskConfig::modeled(bw, op));
        let mut end = Instant::now();
        let mut ops = 0;
        for (i, len) in [1, CHUNK_SIZE, CHUNK_SIZE + 1, 3 * CHUNK_SIZE - 1]
            .into_iter()
            .enumerate()
        {
            let chunks = len.div_ceil(CHUNK_SIZE) as u32;
            let dur = op * chunks + Duration::from_secs_f64(len as f64 / bw as f64);
            let ready_at = disk
                .submit_write(&format!("f{i}"), &vec![0u8; len])
                .unwrap()
                .unwrap();
            // The booking starts where the timeline ended, or now.
            let start = ready_at - dur;
            assert!(start >= end && start <= end.max(Instant::now()));
            end = ready_at;
            ops += u64::from(chunks);
            assert_eq!(disk.metrics().write_ops, ops);
        }
        assert_eq!(ops, 1 + 1 + 2 + 3);
    }

    #[test]
    fn temp_names_are_unique() {
        let disk = Disk::new(DiskConfig::instant());
        let a = disk.temp_name("spill");
        let b = disk.temp_name("spill");
        assert_ne!(a, b);
        assert!(a.starts_with("spill.tmp."));
    }

    #[test]
    fn used_bytes_and_list() {
        let disk = Disk::new(DiskConfig::instant());
        assert!(disk.is_empty());
        disk.write_all("a", &[0u8; 10]).unwrap();
        disk.write_all("b", &[0u8; 20]).unwrap();
        assert_eq!(disk.used_bytes(), 30);
        let mut names = disk.list();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
        assert!(!disk.is_empty());
    }
}
