//! Property tests for the durable flight journal: random record
//! streams under tight rotation budgets (hand-rolled LCG generators,
//! matching `registry_props.rs` — no proptest dependency).
//!
//! The invariant rotation must preserve: whatever retention deletes,
//! what remains on disk is a *contiguous, ordered suffix* of the
//! appended stream (whole oldest segments fall off the front; nothing
//! in the middle is lost, reordered, or duplicated), the byte budget
//! holds up to one open-segment of slack, and a reopen mid-stream is
//! invisible in the read-back.

use hamr_trace::{read_journal, JobRow, Journal, JournalConfig, JournalRecord, StuckEdge};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// Deterministic pseudo-random stream.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hamr_journal_props_{test}_{}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A record whose identity encodes its stream position `i`, with a
/// random-length payload so frame sizes vary across the stream.
fn random_record(i: u64, state: &mut u64) -> JournalRecord {
    let fill = "x".repeat((lcg(state) % 96) as usize);
    match lcg(state) % 3 {
        0 => JournalRecord::JobStart {
            job: format!("job-{i}"),
            engine: "hamr".into(),
            t_us: i,
        },
        1 => {
            // Any column may be absent, as on the engine that has no
            // notion of it; up to three stuck edges.
            let maybe = |state: &mut u64, bound: u64| {
                lcg(state).is_multiple_of(2).then(|| lcg(state) % bound)
            };
            let row = JobRow {
                job: format!("job-{i}"),
                ok: lcg(state).is_multiple_of(2),
                elapsed_us: lcg(state) % 1_000_000,
                shuffled_bytes: lcg(state),
                shuffle_records: maybe(state, 1 << 40),
                distinct_keys: maybe(state, 1 << 30),
                cache_hits: maybe(state, 8),
                stall_us: maybe(state, 1_000_000),
                task_p99_us: maybe(state, 65_536),
                stuck: (0..lcg(state) % 4)
                    .map(|e| StuckEdge {
                        edge: e as u32,
                        dst: (lcg(state) % 8) as u32,
                        bins: lcg(state) % 100,
                    })
                    .collect(),
            };
            JournalRecord::JobEnd { t_us: i, row }
        }
        _ => JournalRecord::Incident {
            job: format!("job-{i}"),
            class: "Hang".into(),
            epoch: i,
            detail: fill,
        },
    }
}

/// Stream position encoded in a record by [`random_record`].
fn position(rec: &JournalRecord) -> u64 {
    match rec {
        JournalRecord::JobStart { t_us, .. } => *t_us,
        JournalRecord::JobEnd { t_us, .. } => *t_us,
        JournalRecord::Incident { epoch, .. } => *epoch,
        other => panic!("unexpected record in stream: {other:?}"),
    }
}

#[test]
fn rotation_preserves_an_ordered_suffix_under_any_stream() {
    let mut state = 0x9E3779B97F4A7C15u64;
    for round in 0..12u64 {
        let dir = temp_dir("suffix");
        let mut cfg = JournalConfig::new(&dir);
        // Tiny segments force many rotations; a budget of a few
        // segments forces retention to actually delete.
        cfg.segment_bytes = 256 + lcg(&mut state) % 768;
        cfg.max_total_bytes = cfg.segment_bytes * (2 + lcg(&mut state) % 4);
        let journal = Journal::open(cfg.clone()).expect("open journal");
        let n = 64 + lcg(&mut state) % 192;
        let mut appended = Vec::with_capacity(n as usize);
        for i in 0..n {
            let rec = random_record(i, &mut state);
            journal.append(&rec);
            appended.push(rec);
        }
        assert_eq!(journal.io_errors(), 0, "round {round}: io errors");
        drop(journal);

        let read = read_journal(&dir).expect("read back");
        assert_eq!(read.truncated_frames, 0, "round {round}");
        assert_eq!(read.unknown_records, 0, "round {round}");
        let k = read.records.len();
        assert!(k >= 1, "round {round}: everything was retained away");
        assert_eq!(
            read.records[..],
            appended[appended.len() - k..],
            "round {round}: read-back is not the appended suffix"
        );
        // Suffix positions are consecutive (redundant with the slice
        // equality above, but states the invariant directly).
        for (offset, rec) in read.records.iter().enumerate() {
            assert_eq!(position(rec), (n as usize - k + offset) as u64);
        }
        // Retention holds the byte budget up to one segment of slack
        // (the open segment is never deleted, and rotation seals only
        // after an append overflows the segment budget).
        let on_disk: u64 = std::fs::read_dir(&dir)
            .expect("journal dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".hjs"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum();
        assert!(
            on_disk <= cfg.max_total_bytes + 2 * cfg.segment_bytes,
            "round {round}: {on_disk} bytes on disk exceeds budget {} + slack",
            cfg.max_total_bytes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn reopen_mid_stream_is_invisible_in_the_read_back() {
    let mut state = 0xD1B54A32D192ED03u64;
    for round in 0..8u64 {
        let dir = temp_dir("reopen");
        let mut cfg = JournalConfig::new(&dir);
        cfg.segment_bytes = 384;
        cfg.max_total_bytes = 0; // retention off: every record survives
        let n = 48 + lcg(&mut state) % 96;
        let cut = 1 + lcg(&mut state) % (n - 1);
        let mut appended = Vec::with_capacity(n as usize);
        let journal = Journal::open(cfg.clone()).expect("open");
        for i in 0..cut {
            let rec = random_record(i, &mut state);
            journal.append(&rec);
            appended.push(rec);
        }
        drop(journal); // flushes; simulates a clean process exit
        let journal = Journal::open(cfg).expect("reopen");
        for i in cut..n {
            let rec = random_record(i, &mut state);
            journal.append(&rec);
            appended.push(rec);
        }
        drop(journal);

        let read = read_journal(&dir).expect("read back");
        assert_eq!(read.truncated_frames, 0, "round {round}");
        assert_eq!(
            read.records, appended,
            "round {round}: reopen at {cut}/{n} lost or reordered records"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
