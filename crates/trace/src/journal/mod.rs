//! The durable flight journal: an append-only, segmented, indexed
//! binary log that persists what the live introspection plane can only
//! show for an instant.
//!
//! The ring sinks drop old events, `/metrics` is a point-in-time
//! scrape, and the flight recorder dumps only on failure. The journal
//! closes that gap: a [`Journal`] continuously appends
//! [`JournalRecord`]s — job phase markers, trace events tapped from
//! the ring before overwrite, metrics epoch snapshots, audit-ledger
//! epochs, and watchdog incidents — so a run can be
//! reconstructed offline (`hamr timeline <dir>`) even if the process
//! that wrote it is gone.
//!
//! ## Storage shape
//!
//! * **Records** are CRC-framed: `[len: u32 LE][crc32(payload): u32 LE]
//!   [payload]`, payload = one tag byte + a little-endian binary body.
//!   A torn write is detected by the CRC and treated as the end of the
//!   segment, never as garbage data.
//! * **Segments** (`seg-NNNNNN.hjs`) rotate once they exceed
//!   [`JournalConfig::segment_bytes`]; sealed segments are retained
//!   until the directory exceeds [`JournalConfig::max_total_bytes`],
//!   then the oldest is deleted — the journal is a bounded window, not
//!   an unbounded archive.
//! * The **index** (`index.hjt`) lists sealed segments with their
//!   record counts and byte sizes; it is rewritten atomically on every
//!   rotation and lets tools size a journal without scanning it.
//! * **Reopen** recovers the tail: the last segment is scanned frame
//!   by frame and truncated at the first corrupt or partial frame, so
//!   a crash mid-write costs at most the torn record.
//!
//! Journal files live on the host filesystem (a post-mortem must
//! survive the process, and the simulated disks retain bytes only in
//! RAM); sealed segments are optionally mirrored into a simdisk via
//! [`Journal::set_segment_mirror`] so journal IO is charged to the
//! disk model, and byte/record counts flow into the metrics registry
//! via [`Journal::set_metrics`].

pub mod timeline;

pub use timeline::{JobSpan, Timeline};

use crate::audit::RecordedEvent;
use crate::registry::{Counter, HistSample, Labels, SampleValue, SeriesSample, Snapshot};
use crate::stats::{EdgeStatsSummary, HopKind, LineageHop, LineageSample, StatsSnapshot, TopKey};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// `HAMR_JOURNAL` configuration: disabled, an auto-picked directory,
/// or an explicit one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum JournalMode {
    /// No journal (the default — tests and benchmarks stay hermetic).
    #[default]
    Off,
    /// Journal into a unique subdirectory of `./hamr_journal`.
    Auto,
    /// Journal into this directory.
    Dir(PathBuf),
}

impl JournalMode {
    /// Parse `HAMR_JOURNAL=off|auto|<dir>` (unset means `Off`).
    pub fn from_env() -> Self {
        match std::env::var("HAMR_JOURNAL").as_deref() {
            Err(_) | Ok("off") | Ok("") => JournalMode::Off,
            Ok("auto") => JournalMode::Auto,
            Ok(dir) => JournalMode::Dir(PathBuf::from(dir)),
        }
    }
}

/// Where and how big. The defaults bound a journal at 16 MiB of
/// 256 KiB segments — roomy for a post-mortem window, small enough to
/// forget about.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    pub dir: PathBuf,
    /// Rotate the open segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Delete the oldest sealed segment while the directory exceeds
    /// this byte budget. 0 disables retention.
    pub max_total_bytes: u64,
}

impl JournalConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            segment_bytes: 256 * 1024,
            max_total_bytes: 16 * 1024 * 1024,
        }
    }
}

/// One durable record. Everything the offline timeline needs to
/// reconstruct a run: phase markers, evicted trace events, metrics
/// epochs, custody epochs, and incidents.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A job entered the cluster. `t_us` is on the journal's clock.
    JobStart {
        job: String,
        engine: String,
        t_us: u64,
    },
    /// The matching completion (ok or failed). A `JobStart` with no
    /// `JobEnd` is a run killed mid-flight.
    JobEnd {
        job: String,
        ok: bool,
        t_us: u64,
        elapsed_us: u64,
        shuffled_bytes: u64,
    },
    /// A trace event, flattened exactly as the flight recorder stores
    /// it — tapped from the ring sink before overwrite, or the ring
    /// tail of a failed run.
    Event(RecordedEvent),
    /// A metrics-registry epoch snapshot (one per completed job).
    Epoch(Snapshot),
    /// The audit ledger at a job boundary, as its canonical JSON.
    AuditEpoch { job: String, report_json: String },
    /// A watchdog-classified incident.
    Incident {
        job: String,
        class: String,
        epoch: u64,
        detail: String,
    },
    /// The data-plane statistics snapshot at a job boundary: merged
    /// per-edge sketches plus sampled record lineage.
    Stats(StatsSnapshot),
}

// --------------------------------------------------------------------------
// CRC32 (IEEE) — dependency-free, table generated at compile time.
// --------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = (c >> 8) ^ CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

// --------------------------------------------------------------------------
// Binary encoding
// --------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.off + n > self.buf.len() {
            return Err("record body truncated".into());
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME_BYTES as usize {
            return Err("string length out of range".into());
        }
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "invalid utf-8".into())
    }
}

const TAG_JOB_START: u8 = 1;
const TAG_JOB_END: u8 = 2;
const TAG_EVENT: u8 = 3;
const TAG_EPOCH: u8 = 4;
const TAG_AUDIT: u8 = 5;
const TAG_INCIDENT: u8 = 6;
// 7 was the alert-transition record. `HAMR_JOURNAL=<dir>` reopens old
// directories, so it is never reused: a tag-7 frame reads back as one
// of `JournalRead::unknown_records`.
const TAG_STATS: u8 = 8;

/// Frames claiming to be larger than this are corruption, not data.
const MAX_FRAME_BYTES: u64 = 64 * 1024 * 1024;

fn encode_labels(buf: &mut Vec<u8>, l: &Labels) {
    let mut mask = 0u8;
    if l.job.is_some() {
        mask |= 1;
    }
    if l.engine.is_some() {
        mask |= 2;
    }
    if l.node.is_some() {
        mask |= 4;
    }
    if l.flowlet.is_some() {
        mask |= 8;
    }
    if l.edge.is_some() {
        mask |= 16;
    }
    buf.push(mask);
    if let Some(j) = &l.job {
        put_str(buf, j);
    }
    if let Some(e) = &l.engine {
        put_str(buf, e);
    }
    if let Some(n) = l.node {
        put_u32(buf, n);
    }
    if let Some(f) = l.flowlet {
        put_u32(buf, f);
    }
    if let Some(e) = l.edge {
        put_u32(buf, e);
    }
}

fn decode_labels(cur: &mut Cursor) -> Result<Labels, String> {
    let mask = cur.u8()?;
    let mut l = Labels::new();
    if mask & 1 != 0 {
        l.job = Some(cur.str()?);
    }
    if mask & 2 != 0 {
        l.engine = Some(cur.str()?);
    }
    if mask & 4 != 0 {
        l.node = Some(cur.u32()?);
    }
    if mask & 8 != 0 {
        l.flowlet = Some(cur.u32()?);
    }
    if mask & 16 != 0 {
        l.edge = Some(cur.u32()?);
    }
    Ok(l)
}

fn encode_snapshot(buf: &mut Vec<u8>, snap: &Snapshot) {
    put_str(buf, &snap.label);
    put_u64(buf, snap.seq);
    put_u32(buf, snap.series.len() as u32);
    for s in &snap.series {
        put_str(buf, &s.name);
        encode_labels(buf, &s.labels);
        match &s.value {
            SampleValue::Counter(v) => {
                buf.push(0);
                put_u64(buf, *v);
            }
            SampleValue::Gauge(v) => {
                buf.push(1);
                put_i64(buf, *v);
            }
            SampleValue::Histogram(h) => {
                buf.push(2);
                put_u64(buf, h.count);
                put_u64(buf, h.sum_us);
                put_u32(buf, h.buckets.len() as u32);
                for b in &h.buckets {
                    put_u64(buf, *b);
                }
            }
        }
    }
}

fn decode_snapshot(cur: &mut Cursor) -> Result<Snapshot, String> {
    let label = cur.str()?;
    let seq = cur.u64()?;
    let n = cur.u32()? as usize;
    let mut series = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let name = cur.str()?;
        let labels = decode_labels(cur)?;
        let value = match cur.u8()? {
            0 => SampleValue::Counter(cur.u64()?),
            1 => SampleValue::Gauge(cur.i64()?),
            2 => {
                let count = cur.u64()?;
                let sum_us = cur.u64()?;
                let nb = cur.u32()? as usize;
                if nb > 1024 {
                    return Err("histogram bucket count out of range".into());
                }
                let mut buckets = Vec::with_capacity(nb);
                for _ in 0..nb {
                    buckets.push(cur.u64()?);
                }
                SampleValue::Histogram(HistSample {
                    count,
                    sum_us,
                    buckets,
                })
            }
            other => return Err(format!("unknown sample kind {other}")),
        };
        series.push(SeriesSample {
            name,
            labels,
            value,
        });
    }
    Ok(Snapshot { label, seq, series })
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn take_bytes(cur: &mut Cursor) -> Result<Vec<u8>, String> {
    let n = cur.u32()? as usize;
    if n > 4096 {
        return Err("byte-string length out of range".into());
    }
    Ok(cur.take(n)?.to_vec())
}

fn encode_stats(buf: &mut Vec<u8>, snap: &StatsSnapshot) {
    put_str(buf, &snap.job);
    put_str(buf, &snap.engine);
    put_u32(buf, snap.edges.len() as u32);
    for e in &snap.edges {
        put_u32(buf, e.edge);
        buf.push(u8::from(e.shuffle));
        put_u64(buf, e.records);
        put_u64(buf, e.bytes);
        put_u64(buf, e.distinct);
        put_u64(buf, e.hot_share.to_bits());
        put_u64(buf, e.p50);
        put_u64(buf, e.p90);
        put_u64(buf, e.p99);
        put_u32(buf, e.top.len() as u32);
        for t in &e.top {
            put_u64(buf, t.hash);
            put_u64(buf, t.count);
            put_u64(buf, t.err);
            put_bytes(buf, &t.key);
        }
    }
    put_u32(buf, snap.samples.len() as u32);
    for s in &snap.samples {
        put_u64(buf, s.hash);
        put_bytes(buf, &s.key);
        put_u32(buf, s.hops.len() as u32);
        for h in &s.hops {
            buf.push(h.kind.as_u8());
            put_u32(buf, h.flowlet);
            put_str(buf, &h.flowlet_name);
            put_u32(buf, h.edge);
            put_u32(buf, h.src);
            put_u32(buf, h.dst);
            put_u32(buf, h.records);
        }
    }
}

fn decode_stats(cur: &mut Cursor) -> Result<StatsSnapshot, String> {
    let job = cur.str()?;
    let engine = cur.str()?;
    let ne = cur.u32()? as usize;
    if ne > 65_536 {
        return Err("stats edge count out of range".into());
    }
    let mut edges = Vec::with_capacity(ne);
    for _ in 0..ne {
        let edge = cur.u32()?;
        let shuffle = cur.u8()? != 0;
        let records = cur.u64()?;
        let bytes = cur.u64()?;
        let distinct = cur.u64()?;
        let hot_share = f64::from_bits(cur.u64()?);
        let p50 = cur.u64()?;
        let p90 = cur.u64()?;
        let p99 = cur.u64()?;
        let nt = cur.u32()? as usize;
        if nt > 1024 {
            return Err("stats top-key count out of range".into());
        }
        let mut top = Vec::with_capacity(nt);
        for _ in 0..nt {
            top.push(TopKey {
                hash: cur.u64()?,
                count: cur.u64()?,
                err: cur.u64()?,
                key: take_bytes(cur)?,
            });
        }
        edges.push(EdgeStatsSummary {
            edge,
            shuffle,
            records,
            bytes,
            distinct,
            hot_share,
            top,
            p50,
            p90,
            p99,
        });
    }
    let ns = cur.u32()? as usize;
    if ns > 65_536 {
        return Err("stats sample count out of range".into());
    }
    let mut samples = Vec::with_capacity(ns);
    for _ in 0..ns {
        let hash = cur.u64()?;
        let key = take_bytes(cur)?;
        let nh = cur.u32()? as usize;
        if nh > 4096 {
            return Err("stats hop count out of range".into());
        }
        let mut hops = Vec::with_capacity(nh);
        for _ in 0..nh {
            // A hop has one shape whatever its kind, so a kind this
            // reader does not know (another version wrote the journal)
            // costs that hop, not the record — as an unknown tag costs
            // its frame, not the segment.
            let kind = HopKind::from_u8(cur.u8()?);
            let (flowlet, flowlet_name) = (cur.u32()?, cur.str()?);
            let (edge, src, dst, records) = (cur.u32()?, cur.u32()?, cur.u32()?, cur.u32()?);
            if let Some(kind) = kind {
                hops.push(LineageHop {
                    kind,
                    flowlet,
                    flowlet_name,
                    edge,
                    src,
                    dst,
                    records,
                });
            }
        }
        samples.push(LineageSample { hash, key, hops });
    }
    Ok(StatsSnapshot {
        job,
        engine,
        edges,
        samples,
    })
}

impl JournalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            JournalRecord::JobStart { job, engine, t_us } => {
                buf.push(TAG_JOB_START);
                put_str(&mut buf, job);
                put_str(&mut buf, engine);
                put_u64(&mut buf, *t_us);
            }
            JournalRecord::JobEnd {
                job,
                ok,
                t_us,
                elapsed_us,
                shuffled_bytes,
            } => {
                buf.push(TAG_JOB_END);
                put_str(&mut buf, job);
                buf.push(u8::from(*ok));
                put_u64(&mut buf, *t_us);
                put_u64(&mut buf, *elapsed_us);
                put_u64(&mut buf, *shuffled_bytes);
            }
            JournalRecord::Event(ev) => {
                buf.push(TAG_EVENT);
                put_u64(&mut buf, ev.t_us);
                put_u32(&mut buf, ev.node);
                put_u32(&mut buf, ev.worker);
                put_str(&mut buf, &ev.name);
                put_u32(&mut buf, ev.args.len() as u32);
                for (k, v) in &ev.args {
                    put_str(&mut buf, k);
                    put_u64(&mut buf, *v);
                }
            }
            JournalRecord::Epoch(snap) => {
                buf.push(TAG_EPOCH);
                encode_snapshot(&mut buf, snap);
            }
            JournalRecord::AuditEpoch { job, report_json } => {
                buf.push(TAG_AUDIT);
                put_str(&mut buf, job);
                put_str(&mut buf, report_json);
            }
            JournalRecord::Incident {
                job,
                class,
                epoch,
                detail,
            } => {
                buf.push(TAG_INCIDENT);
                put_str(&mut buf, job);
                put_str(&mut buf, class);
                put_u64(&mut buf, *epoch);
                put_str(&mut buf, detail);
            }
            JournalRecord::Stats(snap) => {
                buf.push(TAG_STATS);
                encode_stats(&mut buf, snap);
            }
        }
        buf
    }

    fn decode(payload: &[u8]) -> Result<JournalRecord, String> {
        let mut cur = Cursor::new(payload);
        let rec = match cur.u8()? {
            TAG_JOB_START => JournalRecord::JobStart {
                job: cur.str()?,
                engine: cur.str()?,
                t_us: cur.u64()?,
            },
            TAG_JOB_END => JournalRecord::JobEnd {
                job: cur.str()?,
                ok: cur.u8()? != 0,
                t_us: cur.u64()?,
                elapsed_us: cur.u64()?,
                shuffled_bytes: cur.u64()?,
            },
            TAG_EVENT => {
                let t_us = cur.u64()?;
                let node = cur.u32()?;
                let worker = cur.u32()?;
                let name = cur.str()?;
                let n = cur.u32()? as usize;
                if n > 1024 {
                    return Err("event arg count out of range".into());
                }
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = cur.str()?;
                    let v = cur.u64()?;
                    args.push((k, v));
                }
                JournalRecord::Event(RecordedEvent {
                    t_us,
                    node,
                    worker,
                    name,
                    args,
                })
            }
            TAG_EPOCH => JournalRecord::Epoch(decode_snapshot(&mut cur)?),
            TAG_AUDIT => JournalRecord::AuditEpoch {
                job: cur.str()?,
                report_json: cur.str()?,
            },
            TAG_INCIDENT => JournalRecord::Incident {
                job: cur.str()?,
                class: cur.str()?,
                epoch: cur.u64()?,
                detail: cur.str()?,
            },
            TAG_STATS => JournalRecord::Stats(decode_stats(&mut cur)?),
            other => return Err(format!("unknown record tag {other}")),
        };
        Ok(rec)
    }
}

// --------------------------------------------------------------------------
// Writer
// --------------------------------------------------------------------------

fn segment_name(id: u64) -> String {
    format!("seg-{id:06}.hjs")
}

const INDEX_NAME: &str = "index.hjt";

#[derive(Debug, Clone)]
struct SegMeta {
    name: String,
    records: u64,
    bytes: u64,
}

struct WriterInner {
    cfg: JournalConfig,
    file: Option<BufWriter<File>>,
    seg_id: u64,
    seg_bytes: u64,
    seg_records: u64,
    /// In-memory copy of the open segment, handed to the segment
    /// mirror on seal (bounded by `segment_bytes`).
    seg_buf: Vec<u8>,
    sealed: Vec<SegMeta>,
}

type SegmentMirror = Box<dyn Fn(&str, &[u8]) + Send>;

/// The journal writer. Cheap to share (`Arc<Journal>`); `append` is
/// serialized internally. IO failures are counted, never fatal —
/// observability must not take a job down.
pub struct Journal {
    inner: Mutex<WriterInner>,
    epoch: Instant,
    bytes_total: AtomicU64,
    records_total: AtomicU64,
    io_errors: AtomicU64,
    mirror: Mutex<Option<SegmentMirror>>,
    metrics: Mutex<Option<(Counter, Counter)>>,
}

/// Sequence numbers for `JournalMode::Auto` subdirectories, so several
/// clusters in one process never share a writer.
static AUTO_SEQ: AtomicU64 = AtomicU64::new(0);

impl Journal {
    /// Resolve [`JournalMode::from_env`] into an opened journal
    /// (`None` when off). `Auto` picks a unique subdirectory of
    /// `./hamr_journal` per opened journal.
    pub fn from_env() -> std::io::Result<Option<Journal>> {
        match JournalMode::from_env() {
            JournalMode::Off => Ok(None),
            JournalMode::Auto => {
                let sub = format!(
                    "c{:04}-p{}",
                    AUTO_SEQ.fetch_add(1, Ordering::Relaxed),
                    std::process::id()
                );
                let dir = PathBuf::from("hamr_journal").join(sub);
                Journal::open(JournalConfig::new(dir)).map(Some)
            }
            JournalMode::Dir(dir) => Journal::open(JournalConfig::new(dir)).map(Some),
        }
    }

    /// Open (or create) a journal at `cfg.dir`, recovering any
    /// existing tail: the newest segment is scanned and truncated at
    /// the first corrupt or partial frame, then appending resumes.
    pub fn open(cfg: JournalConfig) -> std::io::Result<Journal> {
        std::fs::create_dir_all(&cfg.dir)?;
        let mut segs = list_segments(&cfg.dir)?;
        segs.sort();
        let mut sealed = Vec::new();
        let mut seg_id = 0u64;
        let mut open_file = None;
        let mut seg_bytes = 0u64;
        let mut seg_records = 0u64;
        let mut seg_buf = Vec::new();
        if let Some(last) = segs.last().cloned() {
            for name in &segs[..segs.len() - 1] {
                let path = cfg.dir.join(name);
                let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                let records = scan_segment(&path)
                    .map(|(r, _, _)| r.len() as u64)
                    .unwrap_or(0);
                sealed.push(SegMeta {
                    name: name.clone(),
                    records,
                    bytes,
                });
            }
            // Recover the tail segment: keep the valid prefix, truncate
            // the rest, and continue appending to it.
            let path = cfg.dir.join(&last);
            let (records, valid_bytes, data) = scan_segment(&path)?;
            if (data.len() as u64) > valid_bytes {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid_bytes)?;
            }
            seg_id = last
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".hjs"))
                .and_then(|s| s.parse().ok())
                .unwrap_or(segs.len() as u64);
            seg_bytes = valid_bytes;
            seg_records = records.len() as u64;
            seg_buf = data[..valid_bytes as usize].to_vec();
            open_file = Some(BufWriter::new(OpenOptions::new().append(true).open(&path)?));
        }
        let journal = Journal {
            inner: Mutex::new(WriterInner {
                cfg,
                file: open_file,
                seg_id,
                seg_bytes,
                seg_records,
                seg_buf,
                sealed,
            }),
            epoch: Instant::now(),
            bytes_total: AtomicU64::new(0),
            records_total: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            mirror: Mutex::new(None),
            metrics: Mutex::new(None),
        };
        Ok(journal)
    }

    /// The directory this journal writes into.
    pub fn dir(&self) -> PathBuf {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .cfg
            .dir
            .clone()
    }

    /// Microseconds since this journal was opened — the clock
    /// `JobStart`/`JobEnd` records are stamped with.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Bytes appended through this handle (not counting recovery).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_total.load(Ordering::Relaxed)
    }

    /// Records appended through this handle.
    pub fn records_written(&self) -> u64 {
        self.records_total.load(Ordering::Relaxed)
    }

    /// Append failures swallowed so far (disk full, permissions, …).
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Mirror every sealed segment (name + full contents) into a
    /// secondary sink — the cluster points this at a simulated disk so
    /// journal IO is charged to the disk model.
    pub fn set_segment_mirror(&self, mirror: Option<SegmentMirror>) {
        *self.mirror.lock().unwrap_or_else(|p| p.into_inner()) = mirror;
    }

    /// Mirror append volume into registry counters
    /// (`journal_bytes_total`, `journal_records_total`).
    pub fn set_metrics(&self, bytes: Counter, records: Counter) {
        *self.metrics.lock().unwrap_or_else(|p| p.into_inner()) = Some((bytes, records));
    }

    /// Append one record. Never panics and never fails the caller; IO
    /// errors bump [`io_errors`](Journal::io_errors).
    pub fn append(&self, rec: &JournalRecord) {
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        // Phase markers and incidents must survive a kill
        // right after the append; bulk event traffic may buffer.
        let durable = !matches!(rec, JournalRecord::Event(_));
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let sealed = match self.append_locked(&mut inner, &frame, durable) {
            Ok(sealed) => sealed,
            Err(e) => {
                let n = self.io_errors.fetch_add(1, Ordering::Relaxed);
                if n == 0 {
                    eprintln!("hamr journal: write failed (further errors counted): {e}");
                }
                return;
            }
        };
        drop(inner);
        self.bytes_total
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.records_total.fetch_add(1, Ordering::Relaxed);
        if let Some((bytes, records)) = &*self.metrics.lock().unwrap_or_else(|p| p.into_inner()) {
            bytes.add(frame.len() as u64);
            records.inc();
        }
        // The mirror runs with the writer lock released: mirroring into
        // a traced simdisk emits a trace event, which may re-enter
        // `append` on this very thread through the ring overflow tap.
        // The fresh segment a rotation just opened cannot rotate again
        // within that nested append, so the recursion is depth-one.
        if let Some((name, data)) = sealed {
            if let Some(mirror) = &*self.mirror.lock().unwrap_or_else(|p| p.into_inner()) {
                mirror(&name, &data);
            }
        }
    }

    /// Returns the segment sealed by a rotation this append triggered
    /// (if any), for the caller to mirror outside the writer lock.
    fn append_locked(
        &self,
        inner: &mut WriterInner,
        frame: &[u8],
        durable: bool,
    ) -> std::io::Result<Option<(String, Vec<u8>)>> {
        let mut sealed = None;
        if inner.file.is_none()
            || (inner.seg_records > 0
                && inner.seg_bytes + frame.len() as u64 > inner.cfg.segment_bytes)
        {
            sealed = self.rotate_locked(inner)?;
        }
        let file = inner.file.as_mut().expect("rotate opened a segment");
        file.write_all(frame)?;
        if durable {
            file.flush()?;
        }
        inner.seg_bytes += frame.len() as u64;
        inner.seg_records += 1;
        inner.seg_buf.extend_from_slice(frame);
        Ok(sealed)
    }

    /// Seal the current segment (if any), enforce the byte budget,
    /// rewrite the index, and open the next segment. Returns the
    /// sealed segment's name and bytes so the caller can run the
    /// mirror callback after releasing the writer lock.
    fn rotate_locked(&self, inner: &mut WriterInner) -> std::io::Result<Option<(String, Vec<u8>)>> {
        let mut sealed_seg = None;
        if let Some(mut file) = inner.file.take() {
            file.flush()?;
            let name = segment_name(inner.seg_id);
            inner.sealed.push(SegMeta {
                name: name.clone(),
                records: inner.seg_records,
                bytes: inner.seg_bytes,
            });
            sealed_seg = Some((name, std::mem::take(&mut inner.seg_buf)));
        }
        // Retention: oldest sealed segments go first; the open segment
        // is never deleted.
        if inner.cfg.max_total_bytes > 0 {
            let mut total: u64 = inner.sealed.iter().map(|s| s.bytes).sum();
            while total > inner.cfg.max_total_bytes && inner.sealed.len() > 1 {
                let victim = inner.sealed.remove(0);
                total -= victim.bytes;
                let _ = std::fs::remove_file(inner.cfg.dir.join(&victim.name));
            }
        }
        write_index(&inner.cfg.dir, &inner.sealed)?;
        inner.seg_id += 1;
        inner.seg_bytes = 0;
        inner.seg_records = 0;
        inner.seg_buf.clear();
        let path = inner.cfg.dir.join(segment_name(inner.seg_id));
        inner.file = Some(BufWriter::new(
            OpenOptions::new().create(true).append(true).open(path)?,
        ));
        Ok(sealed_seg)
    }

    /// Flush buffered frames to the filesystem.
    pub fn flush(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(file) = inner.file.as_mut() {
            if file.flush().is_err() {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir())
            .field("records", &self.records_written())
            .field("io_errors", &self.io_errors())
            .finish()
    }
}

fn list_segments(dir: &Path) -> std::io::Result<Vec<String>> {
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

/// Scan one segment file: `(decoded frames as raw payloads, bytes of
/// the valid prefix, full file contents)`. Stops at the first corrupt
/// or partial frame.
fn scan_segment(path: &Path) -> std::io::Result<(Vec<Vec<u8>>, u64, Vec<u8>)> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
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
    Ok((payloads, off as u64, data))
}

fn write_index(dir: &Path, sealed: &[SegMeta]) -> std::io::Result<()> {
    let mut out = String::from("hamr-journal/1\n");
    for s in sealed {
        out.push_str(&format!(
            "segment {} records {} bytes {}\n",
            s.name, s.records, s.bytes
        ));
    }
    let tmp = dir.join(format!("{INDEX_NAME}.tmp"));
    std::fs::write(&tmp, out)?;
    std::fs::rename(tmp, dir.join(INDEX_NAME))
}

// --------------------------------------------------------------------------
// Reader
// --------------------------------------------------------------------------

/// Everything a journal directory yielded on read.
#[derive(Debug, Default)]
pub struct JournalRead {
    /// Decoded records across all segments, oldest first.
    pub records: Vec<JournalRecord>,
    /// Segments that contributed at least one frame.
    pub segments: usize,
    /// Frames abandoned to CRC corruption or a torn tail.
    pub truncated_frames: u64,
    /// Frames whose payload decoded to an unknown tag or malformed
    /// body (skipped, e.g. written by a newer version).
    pub unknown_records: u64,
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
        let (payloads, valid, data) =
            scan_segment(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        if (data.len() as u64) > valid {
            out.truncated_frames += 1;
        }
        if !payloads.is_empty() {
            out.segments += 1;
        }
        for payload in payloads {
            match JournalRecord::decode(&payload) {
                Ok(rec) => out.records.push(rec),
                Err(_) => out.unknown_records += 1,
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hamr_journal_{test}_{}_{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<JournalRecord> {
        let mut snap = Snapshot {
            label: "wc".into(),
            seq: 3,
            series: Vec::new(),
        };
        snap.series.push(SeriesSample {
            name: "shuffled_bytes_total".into(),
            labels: Labels::new().job("wc").engine("hamr"),
            value: SampleValue::Counter(1234),
        });
        snap.series.push(SeriesSample {
            name: "queue_depth".into(),
            labels: Labels::new().node(1).flowlet(2),
            value: SampleValue::Gauge(-7),
        });
        snap.series.push(SeriesSample {
            name: "task_latency_us".into(),
            labels: Labels::new().flowlet(0),
            value: SampleValue::Histogram(HistSample {
                count: 3,
                sum_us: 300,
                buckets: vec![0, 1, 2],
            }),
        });
        vec![
            JournalRecord::JobStart {
                job: "wc".into(),
                engine: "hamr".into(),
                t_us: 10,
            },
            JournalRecord::Event(RecordedEvent {
                t_us: 20,
                node: 1,
                worker: 2,
                name: "bin-shipped".into(),
                args: vec![("bytes".into(), 128), ("edge".into(), 1)],
            }),
            JournalRecord::Epoch(snap),
            JournalRecord::AuditEpoch {
                job: "wc".into(),
                report_json: "{\"enabled\":false}".into(),
            },
            JournalRecord::Incident {
                job: "wc".into(),
                class: "backpressure".into(),
                epoch: 7,
                detail: "windows full".into(),
            },
            JournalRecord::Stats(StatsSnapshot {
                job: "wc".into(),
                engine: "hamr".into(),
                edges: vec![EdgeStatsSummary {
                    edge: 1,
                    shuffle: true,
                    records: 100,
                    bytes: 2048,
                    distinct: 42,
                    hot_share: 0.25,
                    top: vec![TopKey {
                        hash: 7,
                        count: 25,
                        err: 1,
                        key: b"the".to_vec(),
                    }],
                    p50: 15,
                    p90: 63,
                    p99: 127,
                }],
                samples: vec![LineageSample {
                    hash: 7,
                    key: b"the".to_vec(),
                    hops: vec![LineageHop {
                        kind: HopKind::Emit,
                        flowlet: 2,
                        flowlet_name: "mapper".into(),
                        edge: 1,
                        src: 0,
                        dst: 3,
                        records: 9,
                    }],
                }],
            }),
            JournalRecord::JobEnd {
                job: "wc".into(),
                ok: false,
                t_us: 40,
                elapsed_us: 30,
                shuffled_bytes: 1234,
            },
        ]
    }

    #[test]
    fn records_round_trip_through_binary_encoding() {
        for rec in sample_records() {
            let encoded = rec.encode();
            let decoded = JournalRecord::decode(&encoded).expect("decode");
            assert_eq!(decoded, rec);
        }
    }

    /// A journal directory is reopened and appended to, so a reader
    /// meets records written before hot-key splitting was removed:
    /// their lineage hops carry kind codes (1 scatter, 2 re-emit,
    /// 4 absorb) this build no longer has.
    #[test]
    fn a_stats_record_with_a_retired_hop_kind_keeps_its_known_hops() {
        let mut buf = vec![TAG_STATS];
        put_str(&mut buf, "histogram-ratings");
        put_str(&mut buf, "hamr");
        put_u32(&mut buf, 0); // edges
        put_u32(&mut buf, 1); // samples
        put_u64(&mut buf, 0xfeed);
        put_bytes(&mut buf, b"\x05");
        put_u32(&mut buf, 3); // hops
        for (code, flowlet, name, dst) in [
            (0u8, 1, "ratings", 2),
            (1, 1, "ratings", 0),
            (3, 2, "sum", 2),
        ] {
            buf.push(code);
            put_u32(&mut buf, flowlet);
            put_str(&mut buf, name);
            put_u32(&mut buf, 1); // edge
            put_u32(&mut buf, 0); // src
            put_u32(&mut buf, dst);
            put_u32(&mut buf, 9); // records
        }
        let JournalRecord::Stats(snap) = JournalRecord::decode(&buf).expect("decode") else {
            panic!("tag 8 is a stats record");
        };
        let hops = &snap.samples[0].hops;
        let kinds: Vec<HopKind> = hops.iter().map(|h| h.kind).collect();
        assert_eq!(kinds, [HopKind::Emit, HopKind::Reduce]);
        assert_eq!((hops[0].dst, hops[1].flowlet_name.as_str()), (2, "sum"));
        let explained = crate::stats::render_explain(&snap.job, &snap.samples[0]);
        assert_eq!(explained.lines().count(), 4, "{explained}");
        assert!(explained.contains("emitted via flowlet 'ratings' edge 1: node 0 -> node 2"));
        assert!(explained.contains("ingested by reduce via flowlet 'sum' edge 1: node 0 -> node 2"));
        assert!(explained.contains("final reducer: node 2"));
    }

    /// Same for whole records: a directory written before the alert
    /// engine was deleted holds tag-7 frames.
    #[test]
    fn a_retired_tag_7_frame_is_skipped_not_fatal() {
        let mut retired = vec![7u8];
        put_str(&mut retired, "queue-depth-high-water");
        retired.push(1); // firing
        put_u64(&mut retired, 30); // t_us
        put_u64(&mut retired, 9f64.to_bits()); // value
        put_u64(&mut retired, 1f64.to_bits()); // threshold
        put_str(&mut retired, "deferred_bins=9");
        let start = JournalRecord::JobStart {
            job: "wc".into(),
            engine: "hamr".into(),
            t_us: 10,
        };
        let end = JournalRecord::JobEnd {
            job: "wc".into(),
            ok: true,
            t_us: 50,
            elapsed_us: 40,
            shuffled_bytes: 0,
        };
        let mut segment = Vec::new();
        for payload in [start.encode(), retired, end.encode()] {
            put_u32(&mut segment, payload.len() as u32);
            put_u32(&mut segment, crc32(&payload));
            segment.extend_from_slice(&payload);
        }
        let dir = temp_dir("retired_tag");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(segment_name(0)), segment).expect("write segment");
        let read = read_journal(&dir).expect("read");
        assert_eq!(read.records, [start, end]);
        assert_eq!((read.unknown_records, read.truncated_frames), (1, 0));
        let rendered = Timeline::from_records(&read.records).render();
        let row = rendered.lines().find(|l| l.starts_with("wc")).expect("row");
        assert!(row.ends_with("ok"), "{rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_read_round_trip_and_reopen_appends() {
        let dir = temp_dir("roundtrip");
        let recs = sample_records();
        {
            let j = Journal::open(JournalConfig::new(&dir)).expect("open");
            for r in &recs {
                j.append(r);
            }
            assert_eq!(j.records_written(), recs.len() as u64);
            assert_eq!(j.io_errors(), 0);
        }
        let read = read_journal(&dir).expect("read");
        assert_eq!(read.records, recs);
        assert_eq!(read.truncated_frames, 0);
        // Reopen and append: the earlier records survive.
        {
            let j = Journal::open(JournalConfig::new(&dir)).expect("reopen");
            j.append(&recs[0]);
        }
        let read = read_journal(&dir).expect("read after reopen");
        assert_eq!(read.records.len(), recs.len() + 1);
        assert_eq!(read.records[recs.len()], recs[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_and_retention_deletes_oldest() {
        let dir = temp_dir("rotate");
        let mut cfg = JournalConfig::new(&dir);
        cfg.segment_bytes = 256;
        cfg.max_total_bytes = 1024;
        let j = Journal::open(cfg).expect("open");
        let mirrored = std::sync::Arc::new(AtomicU64::new(0));
        let m = std::sync::Arc::clone(&mirrored);
        j.set_segment_mirror(Some(Box::new(move |_name, bytes| {
            m.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        })));
        for i in 0..200u64 {
            j.append(&JournalRecord::Incident {
                job: format!("job-{i}"),
                class: "hang".into(),
                epoch: i,
                detail: "x".repeat(32),
            });
        }
        j.flush();
        let segs = list_segments(&dir).expect("list");
        assert!(
            segs.len() > 1,
            "rotation produced {} segment(s)",
            segs.len()
        );
        let total: u64 = segs
            .iter()
            .map(|s| std::fs::metadata(dir.join(s)).map(|m| m.len()).unwrap_or(0))
            .sum();
        // Sealed segments fit the budget; only the open segment may
        // exceed it transiently.
        assert!(total < 1024 + 512, "retention kept {total} bytes");
        assert!(mirrored.load(Ordering::Relaxed) > 0, "mirror saw seals");
        // The surviving window is the newest suffix.
        let read = read_journal(&dir).expect("read");
        assert!(read.records.len() < 200);
        match read.records.last().expect("non-empty") {
            JournalRecord::Incident { epoch, .. } => assert_eq!(*epoch, 199),
            other => panic!("unexpected tail {other:?}"),
        }
        let epochs: Vec<u64> = read
            .records
            .iter()
            .map(|r| match r {
                JournalRecord::Incident { epoch, .. } => *epoch,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        for pair in epochs.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "contiguous suffix");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_corruption_abandons_the_rest_of_that_segment_only() {
        let dir = temp_dir("crc");
        let mut cfg = JournalConfig::new(&dir);
        cfg.segment_bytes = 200;
        cfg.max_total_bytes = 0;
        let j = Journal::open(cfg).expect("open");
        for i in 0..40u64 {
            j.append(&JournalRecord::Incident {
                job: "wc".into(),
                class: "hang".into(),
                epoch: i,
                detail: "detail".into(),
            });
        }
        j.flush();
        drop(j);
        let clean = read_journal(&dir).expect("clean read");
        let mut segs = list_segments(&dir).expect("list");
        segs.sort();
        assert!(segs.len() >= 3, "need several segments, got {segs:?}");
        // Flip one payload byte in the middle of the first segment.
        let victim = dir.join(&segs[0]);
        let mut bytes = std::fs::read(&victim).expect("read victim");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&victim, bytes).expect("corrupt");
        let read = read_journal(&dir).expect("read survives corruption");
        assert!(read.truncated_frames >= 1);
        assert!(
            read.records.len() < clean.records.len(),
            "corruption dropped frames"
        );
        // Records from the later, untouched segments are still there.
        match read.records.last().expect("non-empty") {
            JournalRecord::Incident { epoch, .. } => assert_eq!(*epoch, 39),
            other => panic!("unexpected tail {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_recovers_on_reopen() {
        let dir = temp_dir("tail");
        let recs = sample_records();
        {
            let j = Journal::open(JournalConfig::new(&dir)).expect("open");
            for r in &recs {
                j.append(r);
            }
        }
        // Tear the tail: chop the last 5 bytes of the open segment,
        // simulating a crash mid-write.
        let mut segs = list_segments(&dir).expect("list");
        segs.sort();
        let tail = dir.join(segs.last().expect("has segment"));
        let bytes = std::fs::read(&tail).expect("read");
        std::fs::write(&tail, &bytes[..bytes.len() - 5]).expect("tear");
        let read = read_journal(&dir).expect("read torn");
        assert_eq!(read.records.len(), recs.len() - 1, "torn record dropped");
        assert_eq!(read.truncated_frames, 1);
        // Reopen truncates the torn frame and appends cleanly after it.
        {
            let j = Journal::open(JournalConfig::new(&dir)).expect("reopen");
            j.append(&recs[0]);
        }
        let read = read_journal(&dir).expect("read recovered");
        assert_eq!(read.records.len(), recs.len());
        assert_eq!(read.truncated_frames, 0, "reopen truncated the tear");
        assert_eq!(read.records.last(), Some(&recs[0]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_mode_parses_env_forms() {
        std::env::remove_var("HAMR_JOURNAL");
        assert_eq!(JournalMode::from_env(), JournalMode::Off);
        std::env::set_var("HAMR_JOURNAL", "off");
        assert_eq!(JournalMode::from_env(), JournalMode::Off);
        std::env::set_var("HAMR_JOURNAL", "auto");
        assert_eq!(JournalMode::from_env(), JournalMode::Auto);
        std::env::set_var("HAMR_JOURNAL", "/tmp/j");
        assert_eq!(
            JournalMode::from_env(),
            JournalMode::Dir(PathBuf::from("/tmp/j"))
        );
        std::env::remove_var("HAMR_JOURNAL");
    }
}
