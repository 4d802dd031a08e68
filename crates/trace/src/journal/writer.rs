//! The journal writer: append, rotate, retain.

use super::codec;
use super::reader::{list_segments, scan_segment};
use super::{JournalConfig, JournalMode, JournalRecord};
use crate::lock;
use crate::registry::Counter;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub(super) fn segment_name(id: u64) -> String {
    format!("seg-{id:06}.hjs")
}

/// A sealed segment, as retention sees it.
#[derive(Debug, Clone)]
struct SegMeta {
    name: String,
    bytes: u64,
}

struct WriterInner {
    cfg: JournalConfig,
    file: Option<BufWriter<File>>,
    seg_id: u64,
    seg_bytes: u64,
    sealed: Vec<SegMeta>,
}

/// The journal writer. Cheap to share (`Arc<Journal>`); `append` is
/// serialized internally. IO failures are counted, never fatal —
/// observability must not take a job down.
pub struct Journal {
    inner: Mutex<WriterInner>,
    epoch: Instant,
    bytes_total: AtomicU64,
    records_total: AtomicU64,
    io_errors: AtomicU64,
    metrics: Mutex<Option<(Counter, Counter)>>,
}

impl Journal {
    /// Resolve [`JournalMode::from_env`] into an opened journal
    /// (`None` when off). `Auto` is [`Journal::open_auto`] under
    /// `./hamr_journal`.
    pub fn from_env() -> std::io::Result<Option<Journal>> {
        match JournalMode::from_env() {
            JournalMode::Off => Ok(None),
            JournalMode::Auto => Journal::open_auto(Path::new("hamr_journal")).map(Some),
            JournalMode::Dir(dir) => Journal::open(JournalConfig::new(dir)).map(Some),
        }
    }

    /// Open a journal in a subdirectory of `root` no other journal
    /// uses: the first of `c0000-p<pid>`, `c0001-p<pid>`, … that
    /// `create_dir` creates. The filesystem arbitrates, so several
    /// clusters in one process never share a writer, and a directory
    /// left by an earlier process is skipped, not appended to.
    pub fn open_auto(root: &Path) -> std::io::Result<Journal> {
        std::fs::create_dir_all(root)?;
        for seq in 0u32.. {
            let dir = root.join(format!("c{seq:04}-p{}", std::process::id()));
            match std::fs::create_dir(&dir) {
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                made => return made.and_then(|()| Journal::open(JournalConfig::new(dir))),
            }
        }
        unreachable!("a directory free among 2^32 names")
    }

    /// Open (or create) a journal at `cfg.dir`, recovering any
    /// existing tail: the newest segment is scanned and truncated at
    /// the first corrupt or partial frame, then appending resumes.
    /// Older segments are sized, not read — retention needs their
    /// bytes only.
    pub fn open(cfg: JournalConfig) -> std::io::Result<Journal> {
        std::fs::create_dir_all(&cfg.dir)?;
        let mut segs = list_segments(&cfg.dir)?;
        segs.sort();
        let mut sealed = Vec::new();
        let mut seg_id = 0u64;
        let mut open_file = None;
        let mut seg_bytes = 0u64;
        if let Some((last, older)) = segs.split_last() {
            for name in older {
                let bytes = std::fs::metadata(cfg.dir.join(name)).map_or(0, |m| m.len());
                sealed.push(SegMeta {
                    name: name.clone(),
                    bytes,
                });
            }
            // Recover the tail segment: keep the valid prefix, truncate
            // the rest, and continue appending to it.
            let path = cfg.dir.join(last);
            let scan = scan_segment(&path)?;
            if scan.torn {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.valid_bytes)?;
            }
            seg_id = last
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".hjs"))
                .and_then(|s| s.parse().ok())
                .unwrap_or(segs.len() as u64);
            seg_bytes = scan.valid_bytes;
            open_file = Some(BufWriter::new(OpenOptions::new().append(true).open(&path)?));
        }
        Ok(Journal {
            inner: Mutex::new(WriterInner {
                cfg,
                file: open_file,
                seg_id,
                seg_bytes,
                sealed,
            }),
            epoch: Instant::now(),
            bytes_total: AtomicU64::new(0),
            records_total: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            metrics: Mutex::new(None),
        })
    }

    /// The directory this journal writes into.
    pub fn dir(&self) -> PathBuf {
        lock(&self.inner).cfg.dir.clone()
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

    /// Mirror append volume into registry counters
    /// (`journal_bytes_total`, `journal_records_total`).
    pub fn set_metrics(&self, bytes: Counter, records: Counter) {
        *lock(&self.metrics) = Some((bytes, records));
    }

    /// Append one record and flush it: every record must survive a
    /// kill right after the append. Never panics and never fails the
    /// caller; IO errors bump [`io_errors`](Journal::io_errors).
    pub fn append(&self, rec: &JournalRecord) {
        let frame = codec::frame(&rec.encode());
        let written = {
            let mut inner = lock(&self.inner);
            Self::append_locked(&mut inner, &frame)
        };
        if let Err(e) = written {
            let n = self.io_errors.fetch_add(1, Ordering::Relaxed);
            if n == 0 {
                eprintln!("hamr journal: write failed (further errors counted): {e}");
            }
            return;
        }
        self.bytes_total
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.records_total.fetch_add(1, Ordering::Relaxed);
        if let Some((bytes, records)) = &*lock(&self.metrics) {
            bytes.add(frame.len() as u64);
            records.inc();
        }
    }

    fn append_locked(inner: &mut WriterInner, frame: &[u8]) -> std::io::Result<()> {
        if inner.file.is_none()
            || (inner.seg_bytes > 0
                && inner.seg_bytes + frame.len() as u64 > inner.cfg.segment_bytes)
        {
            Self::rotate_locked(inner)?;
        }
        let file = inner.file.as_mut().expect("rotate opened a segment");
        file.write_all(frame)?;
        file.flush()?;
        inner.seg_bytes += frame.len() as u64;
        Ok(())
    }

    /// Seal the current segment (if any), enforce the byte budget and
    /// open the next segment.
    fn rotate_locked(inner: &mut WriterInner) -> std::io::Result<()> {
        if let Some(mut file) = inner.file.take() {
            file.flush()?;
            inner.sealed.push(SegMeta {
                name: segment_name(inner.seg_id),
                bytes: inner.seg_bytes,
            });
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
        inner.seg_id += 1;
        inner.seg_bytes = 0;
        let path = inner.cfg.dir.join(segment_name(inner.seg_id));
        inner.file = Some(BufWriter::new(
            OpenOptions::new().create(true).append(true).open(path)?,
        ));
        Ok(())
    }

    /// Flush buffered frames to the filesystem.
    pub fn flush(&self) {
        let mut inner = lock(&self.inner);
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

/// Where an introspection plane keeps its journal. Clones share the
/// slot, so a journal attached after an engine took a clone still
/// reaches that engine's next job.
#[derive(Debug, Clone, Default)]
pub struct JournalSlot(Arc<Mutex<Option<Arc<Journal>>>>);

impl JournalSlot {
    /// Install (or replace, or with `None` detach) the journal.
    pub fn set(&self, journal: Option<Arc<Journal>>) {
        *lock(&self.0) = journal;
    }

    /// The journal now in the slot, if any.
    pub fn get(&self) -> Option<Arc<Journal>> {
        lock(&self.0).clone()
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
