//! Unit tests of the journal, kept in one module (`journal::tests`)
//! across the codec / writer / reader split.

use super::codec::{frame, put_bytes, put_str, put_u32, put_u64, TAG_JOB_END, TAG_STATS};
use super::reader::list_segments;
use super::writer::segment_name;
use super::*;
use crate::stats::{EdgeStatsSummary, HopKind, LineageHop, LineageSample, TopKey};
use crate::{WatchdogClass, WatchdogTrip};
use std::sync::atomic::{AtomicU32, Ordering};

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

fn incident(job: &str, class: WatchdogClass, epoch: u64, detail: &str) -> JournalRecord {
    let detail = detail.to_string();
    let trip = WatchdogTrip {
        class,
        epoch,
        detail,
    };
    JournalRecord::Incident {
        job: job.into(),
        trip,
    }
}

fn sample_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::JobStart {
            job: "wc".into(),
            engine: "hamr".into(),
            t_us: 10,
        },
        incident("wc", WatchdogClass::Backpressure, 7, "windows full"),
        JournalRecord::Stats(StatsSnapshot {
            job: "wc".into(),
            engine: "hamr".into(),
            edges: vec![EdgeStatsSummary {
                edge: 1,
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
            t_us: 40,
            row: JobRow {
                job: "wc".into(),
                ok: false,
                elapsed_us: 30,
                shuffled_bytes: 1234,
                shuffle_records: Some(99),
                distinct_keys: Some(42),
                cache_hits: Some(1),
                stall_us: Some(2500),
                task_p99_us: Some(0),
                stuck: vec![StuckEdge {
                    edge: 1,
                    dst: 3,
                    bins: 4,
                }],
            },
        },
        // A `mapred` row: no cache, no flow control, no task histogram.
        JournalRecord::JobEnd {
            t_us: 50,
            row: JobRow {
                job: "idle".into(),
                ok: true,
                elapsed_us: 5,
                shuffle_records: Some(0),
                distinct_keys: Some(0),
                ..JobRow::default()
            },
        },
    ]
}

/// The five fields every `JobEnd` layout starts with.
fn five_field_job_end(job: &str, shuffled_bytes: u64) -> Vec<u8> {
    let mut buf = vec![TAG_JOB_END];
    put_str(&mut buf, job);
    buf.push(1); // ok
    put_u64(&mut buf, 50); // t_us
    put_u64(&mut buf, 40); // elapsed_us
    put_u64(&mut buf, shuffled_bytes);
    buf
}

/// The columns of `job`'s row in a one-job timeline.
fn rendered_row(records: &[JournalRecord], job: &str) -> Vec<String> {
    let rendered = Timeline::from_records(records).render();
    let row = rendered.lines().find(|l| l.starts_with(job)).expect("row");
    row.split_whitespace().map(str::to_string).collect()
}

#[test]
fn records_round_trip_through_binary_encoding() {
    for rec in sample_records() {
        let encoded = rec.encode();
        let decoded = JournalRecord::decode(&encoded).expect("decode");
        assert_eq!(decoded, rec);
    }
}

fn start(job: &str) -> JournalRecord {
    JournalRecord::JobStart {
        job: job.into(),
        engine: "hamr".into(),
        t_us: 10,
    }
}

/// `HAMR_JOURNAL=<dir>` reopens directories an older writer filled,
/// whose `JobEnd` ends at `shuffled_bytes`. It decodes with every later
/// column `None`, and its row says so: `-`, never a `0`.
#[test]
fn a_five_field_job_end_decodes_and_renders_unknown_columns() {
    let decoded = JournalRecord::decode(&five_field_job_end("wc", 777)).expect("decode");
    let row = JobRow {
        job: "wc".into(),
        ok: true,
        elapsed_us: 40,
        shuffled_bytes: 777,
        ..JobRow::default()
    };
    assert_eq!(decoded, JournalRecord::JobEnd { t_us: 50, row });
    assert_eq!(
        rendered_row(&[start("wc"), decoded], "wc"),
        ["wc", "hamr", "0.0", "-", "777", "-", "-", "-", "-", "ok"]
    );
}

/// The layout before shuffle records and distinct keys: the five
/// fields, then cache hits, stall, p99 and the stuck edges. It decodes
/// with those four columns and renders `-` for the two it lacks.
#[test]
fn a_job_end_without_records_and_keys_renders_the_columns_it_has() {
    let mut old = five_field_job_end("wc", 777);
    put_u64(&mut old, 3); // cache hits
    put_u64(&mut old, 2500); // stall µs
    old.push(1); // p99 present
    put_u64(&mut old, 127);
    put_u32(&mut old, 1); // stuck edges
    put_u32(&mut old, 1); // edge
    put_u32(&mut old, 2); // dst
    put_u64(&mut old, 5); // bins
    let decoded = JournalRecord::decode(&old).expect("decode");
    let row = JobRow {
        job: "wc".into(),
        ok: true,
        elapsed_us: 40,
        shuffled_bytes: 777,
        cache_hits: Some(3),
        stall_us: Some(2500),
        task_p99_us: Some(127),
        stuck: vec![StuckEdge {
            edge: 1,
            dst: 2,
            bins: 5,
        }],
        ..JobRow::default()
    };
    assert_eq!(decoded, JournalRecord::JobEnd { t_us: 50, row });
    assert_eq!(
        rendered_row(&[start("wc"), decoded], "wc"),
        ["wc", "hamr", "0.0", "-", "777", "-", "3", "2.5", "127us", "ok"]
    );
}

/// A row claiming more stuck edges than any ledger holds is
/// corruption: the record is refused, not allocated.
#[test]
fn a_job_end_with_an_absurd_stuck_edge_count_is_refused() {
    let mut buf = five_field_job_end("wc", 0);
    put_u64(&mut buf, 0); // cache hits
    put_u64(&mut buf, 0); // stall µs
    buf.push(0); // no p99
    put_u32(&mut buf, u32::MAX); // stuck edges
    assert!(JournalRecord::decode(&buf).is_err());
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

/// Before the plane sketched shuffle edges only, a stats record also
/// held the loader's local edge: the same row, flag byte 0. It decodes
/// and is dropped, so the timeline prints one `keys:` line either way.
#[test]
fn a_parents_local_edge_stats_row_is_dropped() {
    let stats = sample_records().into_iter().find_map(|r| match r {
        JournalRecord::Stats(s) => Some(s),
        _ => None,
    });
    let mut snap = stats.expect("a stats record");
    let mut local = snap.edges[0].clone();
    local.edge = 0;
    snap.edges.insert(0, local);
    let mut old = JournalRecord::Stats(snap.clone()).encode();
    // Tag, job, engine, row count, then row 0's edge id and flag.
    let flag = 1 + (4 + snap.job.len()) + (4 + snap.engine.len()) + 4 + 4;
    assert_eq!(old[flag], 1);
    old[flag] = 0;
    let JournalRecord::Stats(read) = JournalRecord::decode(&old).expect("decode") else {
        panic!("tag 8 is a stats record");
    };
    assert_eq!(read.edges, snap.edges[1..]);
}

/// Same for whole records: a directory written before the alert engine
/// was deleted holds tag-7 frames, one written before trace events left
/// the journal holds tag-3 frames, and one written before a job's
/// numbers moved into its `JobEnd` holds tag-4 registry epochs and
/// tag-5 audit ledgers. Each is skipped and counted, and the header
/// says how many.
#[test]
fn retired_tags_3_4_5_and_7_are_skipped_not_fatal() {
    let mut retired = vec![7u8];
    put_str(&mut retired, "queue-depth-high-water");
    retired.push(1); // firing
    put_u64(&mut retired, 30); // t_us
    put_u64(&mut retired, 9f64.to_bits()); // value
    put_u64(&mut retired, 1f64.to_bits()); // threshold
    put_str(&mut retired, "deferred_bins=9");
    let mut event = vec![3u8];
    put_u64(&mut event, 20); // t_us
    put_u32(&mut event, 1); // node
    put_u32(&mut event, 2); // worker
    put_str(&mut event, "bin-shipped");
    let args = [("bytes", 128u64), ("dst", 1), ("edge", 1), ("flowlet", 1)];
    put_u32(&mut event, args.len() as u32);
    for (k, v) in args {
        put_str(&mut event, k);
        put_u64(&mut event, v);
    }
    let mut epoch = vec![4u8];
    put_str(&mut epoch, "wc"); // label
    put_u64(&mut epoch, 0); // sequence slot
    put_u32(&mut epoch, 1); // series
    put_str(&mut epoch, "hamr_cache_hits_total");
    epoch.push(2); // labels mask: engine
    put_str(&mut epoch, "hamr");
    epoch.push(0); // counter
    put_u64(&mut epoch, 3);
    let mut audit = vec![5u8];
    put_str(&mut audit, "wc");
    put_str(&mut audit, "{\"enabled\":false}");
    let start = start("wc");
    let end = JournalRecord::decode(&five_field_job_end("wc", 0)).expect("decode");
    let segment = [
        start.encode(),
        event,
        epoch.clone(),
        audit,
        retired,
        end.encode(),
    ]
    .iter()
    .flat_map(|payload| frame(payload))
    .collect::<Vec<u8>>();
    let dir = temp_dir("retired_tag");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(segment_name(0)), segment).expect("write segment");
    let read = read_journal(&dir).expect("read");
    assert_eq!(read.records, [start, end]);
    assert_eq!((read.unknown_records, read.truncated_frames), (4, 0));
    let rendered = Timeline::load(&dir).expect("load").render();
    let header = rendered.lines().next().expect("header");
    assert!(
        header.ends_with("— 4 record(s) of a retired or unknown kind skipped"),
        "{rendered}"
    );
    let row = rendered.lines().find(|l| l.starts_with("wc")).expect("row");
    assert!(row.ends_with("ok"), "{rendered}");
    // What an older build wrote when a journal was attached and no job
    // ran: one `Epoch`, nothing else. Still a journal, its frame counted.
    let only = temp_dir("retired_only");
    std::fs::create_dir_all(&only).expect("mkdir");
    std::fs::write(only.join(segment_name(0)), frame(&epoch)).expect("write segment");
    let t = Timeline::load(&only).expect("a journal of skipped frames loads");
    assert_eq!((t.sources, t.jobs.len(), t.unknown_records), (1, 0, 1));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&only);
}

/// An `HAMR_JOURNAL=auto` parent holds one journal per cluster. Each
/// is folded on its own, and each row is its own `JobEnd`'s: nothing
/// of the cluster read before it leaks in.
#[test]
fn each_journal_of_a_tree_is_its_own_baseline() {
    let dir = temp_dir("tree");
    for (sub, job, hits) in [("c0000", "big", 40), ("c0001", "small", 5)] {
        let j = Journal::open(JournalConfig::new(dir.join(sub))).expect("open");
        j.append(&JournalRecord::JobStart {
            job: job.into(),
            engine: "hamr".into(),
            t_us: 0,
        });
        j.append(&JournalRecord::JobEnd {
            t_us: 10,
            row: JobRow {
                job: job.into(),
                ok: true,
                elapsed_us: 10,
                shuffled_bytes: hits * 100,
                cache_hits: Some(hits),
                ..JobRow::default()
            },
        });
    }
    let t = Timeline::load(&dir).expect("load tree");
    assert_eq!(t.sources, 2);
    let cols: Vec<_> = t
        .jobs
        .iter()
        .map(|s| {
            let row = s.row.as_ref();
            let hits = row.and_then(|r| r.cache_hits);
            (s.job.as_str(), hits, row.map(|r| r.shuffled_bytes))
        })
        .collect();
    assert_eq!(
        cols,
        [("big", Some(40), Some(4000)), ("small", Some(5), Some(500))]
    );
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
    let j = Journal::open(cfg.clone()).expect("open");
    for i in 0..200u64 {
        j.append(&incident(
            &format!("job-{i}"),
            WatchdogClass::Hang,
            i,
            &"x".repeat(32),
        ));
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
    // The segments are all the writer leaves behind.
    assert!(!dir.join("index.hjt").exists(), "no index is written");
    // The surviving window is the newest suffix.
    let read = read_journal(&dir).expect("read");
    assert!(read.records.len() < 200);
    match read.records.last().expect("non-empty") {
        JournalRecord::Incident { trip, .. } => assert_eq!(trip.epoch, 199),
        other => panic!("unexpected tail {other:?}"),
    }
    let epochs: Vec<u64> = read
        .records
        .iter()
        .map(|r| match r {
            JournalRecord::Incident { trip, .. } => trip.epoch,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    for pair in epochs.windows(2) {
        assert_eq!(pair[1], pair[0] + 1, "contiguous suffix");
    }
    // A directory an older writer left holds an index; it is neither
    // read nor fatal — reopening, appending and reading go by the
    // segments alone, and the stale file is left as it was.
    drop(j);
    let stale = "hamr-journal/1\nsegment seg-999999.hjs records 7 bytes 7\n";
    std::fs::write(dir.join("index.hjt"), stale).expect("write stale index");
    let j = Journal::open(cfg).expect("reopen beside a stale index");
    j.append(&incident("job-200", WatchdogClass::Hang, 200, ""));
    drop(j);
    let reread = read_journal(&dir).expect("read beside a stale index");
    assert_eq!(reread.records.len(), read.records.len() + 1);
    assert_eq!(
        std::fs::read_to_string(dir.join("index.hjt")).expect("still there"),
        stale
    );
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
        j.append(&incident("wc", WatchdogClass::Hang, i, "detail"));
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
        JournalRecord::Incident { trip, .. } => assert_eq!(trip.epoch, 39),
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
