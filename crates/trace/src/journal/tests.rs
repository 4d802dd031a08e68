//! Unit tests of the journal, kept in one module (`journal::tests`)
//! across the codec / writer / reader split.

use super::codec::{frame, put_bytes, put_str, put_u32, put_u64, TAG_STATS};
use super::reader::list_segments;
use super::writer::segment_name;
use super::*;
use crate::registry::{HistSample, Labels, SampleValue, SeriesSample};
use crate::stats::{EdgeStatsSummary, HopKind, LineageHop, LineageSample, TopKey};
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

fn sample_records() -> Vec<JournalRecord> {
    let mut snap = Snapshot {
        label: "wc".into(),
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

/// Same for whole records: a directory written before the alert
/// engine was deleted holds tag-7 frames, and one written before trace
/// events left the journal holds tag-3 frames.
#[test]
fn a_retired_tag_7_frame_is_skipped_not_fatal() {
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
    let segment = [start.encode(), event, retired, end.encode()]
        .iter()
        .flat_map(|payload| frame(payload))
        .collect::<Vec<u8>>();
    let dir = temp_dir("retired_tag");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(segment_name(0)), segment).expect("write segment");
    let read = read_journal(&dir).expect("read");
    assert_eq!(read.records, [start, end]);
    assert_eq!((read.unknown_records, read.truncated_frames), (2, 0));
    let rendered = Timeline::from_records(&read.records).render();
    let row = rendered.lines().find(|l| l.starts_with("wc")).expect("row");
    assert!(row.ends_with("ok"), "{rendered}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An `HAMR_JOURNAL=auto` parent holds one journal per cluster. Each
/// is folded on its own: a cluster's first job is measured from its
/// own registry, not against the cumulative counters of the cluster
/// read before it.
#[test]
fn each_journal_of_a_tree_is_its_own_baseline() {
    let dir = temp_dir("tree");
    for (sub, job, hits) in [("c0000", "big", 40), ("c0001", "small", 5)] {
        let j = Journal::open(JournalConfig::new(dir.join(sub))).expect("open");
        let mut snap = Snapshot {
            label: job.into(),
            series: Vec::new(),
        };
        snap.series.push(SeriesSample {
            name: "hamr_cache_hits_total".into(),
            labels: Labels::new().engine("hamr"),
            value: SampleValue::Counter(hits),
        });
        j.append(&JournalRecord::JobStart {
            job: job.into(),
            engine: "hamr".into(),
            t_us: 0,
        });
        j.append(&JournalRecord::Epoch(snap));
        j.append(&JournalRecord::JobEnd {
            job: job.into(),
            ok: true,
            t_us: 10,
            elapsed_us: 10,
            shuffled_bytes: hits * 100,
        });
    }
    let t = Timeline::load(&dir).expect("load tree");
    assert_eq!(t.sources, 2);
    let cols: Vec<_> = t
        .jobs
        .iter()
        .map(|s| (s.job.as_str(), s.cache_hits, s.shuffled_bytes))
        .collect();
    assert_eq!(cols, [("big", 40, Some(4000)), ("small", 5, Some(500))]);
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
    // The segments are all the writer leaves behind.
    assert!(!dir.join("index.hjt").exists(), "no index is written");
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
    // A directory an older writer left holds an index; it is neither
    // read nor fatal — reopening, appending and reading go by the
    // segments alone, and the stale file is left as it was.
    drop(j);
    let stale = "hamr-journal/1\nsegment seg-999999.hjs records 7 bytes 7\n";
    std::fs::write(dir.join("index.hjt"), stale).expect("write stale index");
    let j = Journal::open(cfg).expect("reopen beside a stale index");
    j.append(&JournalRecord::Incident {
        job: "job-200".into(),
        class: "hang".into(),
        epoch: 200,
        detail: String::new(),
    });
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
