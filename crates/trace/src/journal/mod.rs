//! The durable flight journal: an append-only, segmented binary log
//! that persists what the live introspection plane can only show for
//! an instant.
//!
//! `/metrics` is a point-in-time scrape and the flight recorder dumps
//! only on failure. The journal closes that gap: a [`Journal`] appends
//! [`JournalRecord`]s — job phase markers, watchdog incidents and
//! data-plane statistics — so a run can be reconstructed offline
//! (`hamr timeline <dir>`, `hamr explain`) even if the process that
//! wrote it is gone. Every
//! record kind has a reader there; trace events stay in the flight
//! record (`doctor_<job>.json`, `/doctor`).
//!
//! A job's row is its `JobEnd`: each engine builds the job's
//! [`JobRow`] once from the run it just collected — HAMR in
//! `cluster/run.rs`, `mapred` in `JobStats::row` — and both journal it
//! whenever their shared [`JournalSlot`] holds a journal, so a reader
//! prints it as written and subtracts nothing. The journal holds no
//! registry snapshot and no JSON.
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
//! * **Reopen** recovers the tail: the last segment is scanned frame
//!   by frame and truncated at the first corrupt or partial frame, so
//!   a crash mid-write costs at most the torn record.
//!
//! The segments are all there is: the writer keeps no index file and
//! no second copy of what it wrote, because nothing reads either (the
//! bar for adding one back is a committed reader).
//!
//! Journal files live on the host filesystem (a post-mortem must
//! survive the process, and the simulated disks retain bytes only in
//! RAM); byte/record counts flow into the metrics registry via
//! [`Journal::set_metrics`].
//!
//! ## Modules
//!
//! `codec` owns the bytes (the CRC frame, each record type's body),
//! `writer` is [`Journal`], `reader` is segment scanning and
//! [`read_journal`], [`timeline`] folds the records a reader returns
//! into `hamr timeline`'s report.

mod codec;
mod reader;
#[cfg(test)]
mod tests;
pub mod timeline;
mod writer;

pub use reader::{read_journal, read_journal_tree, JournalRead};
pub use timeline::{JobSpan, Timeline};
pub use writer::{Journal, JournalSlot};

use crate::stats::StatsSnapshot;
use crate::WatchdogTrip;
use std::path::PathBuf;

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

/// One durable record. Everything the offline timeline and `hamr
/// explain` need to reconstruct a run: phase markers, incidents and
/// data-plane statistics. A job's own numbers travel in its `JobEnd`.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A job entered the cluster. `t_us` is on the journal's clock.
    JobStart {
        job: String,
        engine: String,
        t_us: u64,
    },
    /// The matching completion (ok or failed): the job's row, stamped
    /// on the journal's clock. A `JobStart` with no `JobEnd` is a run
    /// killed mid-flight.
    JobEnd { t_us: u64, row: JobRow },
    /// A watchdog-classified incident of `job`.
    Incident { job: String, trip: WatchdogTrip },
    /// The data-plane statistics snapshot at a job boundary: merged
    /// per-edge sketches plus sampled record lineage.
    Stats(StatsSnapshot),
}

/// One job's numbers, built once by the engine that ran it from what
/// the run itself holds: `JobResult::row` on HAMR, `JobStats::row()` on
/// `mapred`. The journal's `JobEnd` encodes it, `hamr timeline` prints
/// it, and the workloads' `BenchOutput::jobs` lists it. A column the
/// engine has no notion of is `None` and prints `-`, never `0`; so is
/// every column a `JobEnd` from an older writer did not carry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobRow {
    pub job: String,
    pub ok: bool,
    pub elapsed_us: u64,
    /// Bytes the job's shuffle moved: link bytes between nodes on HAMR,
    /// every map-output partition served on `mapred`.
    pub shuffled_bytes: u64,
    /// Records emitted into the job's exchanges, before combining:
    /// every flowlet with an out-edge other than `Local` on HAMR,
    /// `map_records_out` on `mapred`.
    pub shuffle_records: Option<u64>,
    /// Distinct shuffle keys: the widest sketched edge's estimate on
    /// HAMR (`None` under `HAMR_STATS=off`), the exact reduce groups on
    /// `mapred`.
    pub distinct_keys: Option<u64>,
    /// Plan flowlets served from the resident store.
    pub cache_hits: Option<u64>,
    /// Flow-control stall time, summed over the job's flowlets.
    pub stall_us: Option<u64>,
    /// p99 over every task the job ran: the upper bound of the log2
    /// bucket that holds it.
    pub task_p99_us: Option<u64>,
    /// Custody rows with bins emitted and never consumed, largest gap
    /// first. Empty unless the job ran supervised.
    pub stuck: Vec<StuckEdge>,
}

/// One custody row left with bins in flight: `bins` emitted on `edge`
/// toward node `dst` and never consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckEdge {
    pub edge: u32,
    pub dst: u32,
    pub bins: u64,
}
