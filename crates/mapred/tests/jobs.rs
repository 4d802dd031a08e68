//! End-to-end MapReduce jobs: full map → shuffle → barrier → reduce
//! through the simulated substrates.

use hamr_codec::Codec;
use hamr_mapred::{
    decode_kv, line_map_fn, map_fn, reduce_fn, InputFormat, JobConf, MrCluster, MrError,
    MrRunOptions, ReduceOutput,
};
use hamr_trace::{RecordedEvent, RingSink, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;

fn read_outputs(cluster: &MrCluster, output: &str) -> BTreeMap<String, u64> {
    let mut all = BTreeMap::new();
    for part in cluster.dfs().list(&format!("{output}/")) {
        let raw = cluster.dfs().read_all(&part).unwrap();
        let mut input = raw.as_slice();
        while let Some((k, v)) = decode_kv(&mut input).unwrap() {
            let key = String::from_bytes(k).unwrap();
            let val = u64::from_bytes(v).unwrap();
            assert!(all.insert(key, val).is_none(), "duplicate key across parts");
        }
    }
    all
}

fn wordcount_job(input: &str, output: &str) -> JobConf {
    JobConf::new(
        "wordcount",
        vec![input.to_string()],
        output,
        Arc::new(line_map_fn(|_off, line, out| {
            for w in line.split_whitespace() {
                out.emit_t(&w.to_string(), &1u64);
            }
        })),
        Arc::new(reduce_fn(
            |k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
                out.emit_t(&k, &vs.iter().sum::<u64>());
            },
        )),
    )
}

fn write_corpus(cluster: &MrCluster, path: &str, lines: &[&str]) {
    let mut w = cluster.dfs().create(path).unwrap();
    for line in lines {
        w.write_line(line);
    }
    w.seal().unwrap();
}

#[test]
fn wordcount_end_to_end() {
    let cluster = MrCluster::in_memory(3, 2);
    write_corpus(
        &cluster,
        "in.txt",
        &[
            "the quick brown fox",
            "the lazy dog",
            "the quick dog",
            "fox",
        ],
    );
    let stats = cluster.run(&wordcount_job("in.txt", "out")).unwrap();
    assert_eq!(stats.map_records_in, 4);
    assert_eq!(stats.map_records_out, 11);
    assert_eq!(stats.reduce_tasks, 3);
    let counts = read_outputs(&cluster, "out");
    assert_eq!(counts["the"], 3);
    assert_eq!(counts["quick"], 2);
    assert_eq!(counts["fox"], 2);
    assert_eq!(counts["dog"], 2);
    assert_eq!(counts["brown"], 1);
    assert_eq!(counts["lazy"], 1);
}

#[test]
fn multiple_blocks_mean_multiple_map_tasks_with_locality() {
    let disks: Vec<hamr_simdisk::Disk> = (0..4)
        .map(|_| hamr_simdisk::Disk::new(Default::default()))
        .collect();
    let dfs = hamr_dfs::Dfs::new(
        disks.clone(),
        hamr_dfs::DfsConfig {
            block_size: 256,
            replication: 2,
        },
    );
    let mut config = hamr_mapred::MrConfig::local(4, 2);
    // A small per-task cost keeps every node's workers in play so
    // locality reflects the scheduler, not thread-spawn racing.
    config.startup.task = std::time::Duration::from_millis(3);
    let cluster = MrCluster::new(config, disks, dfs);
    let lines: Vec<String> = (0..200)
        .map(|i| format!("word{} filler text", i % 10))
        .collect();
    let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
    write_corpus(&cluster, "big.txt", &refs);
    let stats = cluster.run(&wordcount_job("big.txt", "out")).unwrap();
    assert!(stats.map_tasks > 4, "small blocks should give many splits");
    assert!(
        stats.local_map_tasks * 10 >= stats.map_tasks * 5,
        "most map tasks should be local: {}/{}",
        stats.local_map_tasks,
        stats.map_tasks
    );
    let counts = read_outputs(&cluster, "out");
    assert_eq!(counts.len(), 12); // word0..word9, filler, text
    assert_eq!(counts["filler"], 200);
}

#[test]
fn combiner_reduces_shuffle_volume() {
    let cluster1 = MrCluster::in_memory(2, 2);
    let cluster2 = MrCluster::in_memory(2, 2);
    let lines: Vec<String> = (0..300).map(|_| "alpha beta".to_string()).collect();
    let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
    write_corpus(&cluster1, "in.txt", &refs);
    write_corpus(&cluster2, "in.txt", &refs);

    let plain = cluster1.run(&wordcount_job("in.txt", "out")).unwrap();
    let combiner = Arc::new(reduce_fn(
        |k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
            out.emit_t(&k, &vs.iter().sum::<u64>());
        },
    ));
    let combined = cluster2
        .run(&wordcount_job("in.txt", "out").with_combiner(combiner))
        .unwrap();

    assert!(
        combined.shuffled_bytes < plain.shuffled_bytes / 10,
        "combiner should collapse shuffle: {} vs {}",
        combined.shuffled_bytes,
        plain.shuffled_bytes
    );
    assert_eq!(
        read_outputs(&cluster1, "out"),
        read_outputs(&cluster2, "out")
    );
}

#[test]
fn chained_jobs_roundtrip_through_dfs() {
    // Job 1: wordcount. Job 2: histogram of counts (KeyValue input).
    let cluster = MrCluster::in_memory(2, 2);
    write_corpus(&cluster, "in.txt", &["a a a b b c", "a b c d", "c d d a"]);
    let job1 = wordcount_job("in.txt", "inter");
    let job2 = JobConf::new(
        "histogram",
        vec!["inter/part-r-0".to_string(), "inter/part-r-1".to_string()],
        "final",
        Arc::new(map_fn(|_word: String, count: u64, out| {
            out.emit_t(&format!("count={count}"), &1u64);
        })),
        Arc::new(reduce_fn(
            |k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
                out.emit_t(&k, &(vs.len() as u64));
            },
        )),
    )
    .with_input_format(InputFormat::KeyValue);
    // A chain is consecutive runs, as the workloads write it.
    let first = cluster.run(&job1).unwrap();
    let second = cluster.run(&job2).unwrap();
    assert_eq!(second.map_records_in, first.reduce_records_out);
    // words: a=5 b=3 c=3 d=3 -> one word with count 5, three with count 3
    let hist = read_outputs(&cluster, "final");
    assert_eq!(hist["count=5"], 1);
    assert_eq!(hist["count=3"], 3);
}

#[test]
fn tiny_sort_buffer_spills_but_output_is_correct() {
    let disks: Vec<hamr_simdisk::Disk> = (0..2)
        .map(|_| hamr_simdisk::Disk::new(Default::default()))
        .collect();
    let dfs = hamr_dfs::Dfs::new(disks.clone(), Default::default());
    let mut config = hamr_mapred::MrConfig::local(2, 2);
    config.sort_buffer = 2048;
    let cluster = MrCluster::new(config, disks, dfs);
    let lines: Vec<String> = (0..500)
        .map(|i| format!("w{} w{} w{}", i % 7, i % 3, i % 11))
        .collect();
    let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
    write_corpus(&cluster, "in.txt", &refs);
    let stats = cluster.run(&wordcount_job("in.txt", "out")).unwrap();
    assert!(stats.spills > 0, "tiny sort buffer must spill");
    assert!(stats.spilled_bytes > 0);
    let counts = read_outputs(&cluster, "out");
    let total: u64 = counts.values().sum();
    assert_eq!(total, 1500);
}

#[test]
fn reducer_count_can_exceed_nodes() {
    let cluster = MrCluster::in_memory(2, 2);
    write_corpus(&cluster, "in.txt", &["a b c d e f g h"]);
    let stats = cluster
        .run(&wordcount_job("in.txt", "out").with_reducers(5))
        .unwrap();
    assert_eq!(stats.reduce_tasks, 5);
    let counts = read_outputs(&cluster, "out");
    assert_eq!(counts.len(), 8);
    assert_eq!(cluster.dfs().list("out/").len(), 5);
}

#[test]
fn mapper_panic_becomes_error() {
    let cluster = MrCluster::in_memory(2, 1);
    write_corpus(&cluster, "in.txt", &["boom"]);
    let job = JobConf::new(
        "bad",
        vec!["in.txt".to_string()],
        "out",
        Arc::new(line_map_fn(|_, _, _| panic!("mapper exploded"))),
        Arc::new(reduce_fn(
            |_k: String, _v: Vec<u64>, _out: &mut ReduceOutput| {},
        )),
    );
    match cluster.run(&job) {
        Err(MrError::TaskPanic(m)) => assert!(m.contains("mapper exploded")),
        other => panic!("expected TaskPanic, got {other:?}"),
    }
}

#[test]
fn empty_input_still_writes_empty_parts() {
    let cluster = MrCluster::in_memory(2, 1);
    cluster.dfs().create("empty.txt").unwrap().seal().unwrap();
    let stats = cluster.run(&wordcount_job("empty.txt", "out")).unwrap();
    assert_eq!(stats.map_tasks, 0);
    assert_eq!(cluster.dfs().list("out/").len(), 2);
    assert!(read_outputs(&cluster, "out").is_empty());
}

#[test]
fn startup_costs_add_measurable_time() {
    let disks: Vec<hamr_simdisk::Disk> = (0..2)
        .map(|_| hamr_simdisk::Disk::new(Default::default()))
        .collect();
    let dfs = hamr_dfs::Dfs::new(disks.clone(), Default::default());
    let mut config = hamr_mapred::MrConfig::local(2, 1);
    config.startup = hamr_mapred::StartupModel::modeled(
        std::time::Duration::from_millis(50),
        std::time::Duration::from_millis(10),
    );
    let cluster = MrCluster::new(config, disks, dfs);
    write_corpus(&cluster, "in.txt", &["a b"]);
    let stats = cluster.run(&wordcount_job("in.txt", "out")).unwrap();
    // >= job(50ms) + 1 map task(10ms) + 2 reduce tasks(>=10ms serial min)
    assert!(
        stats.elapsed >= std::time::Duration::from_millis(70),
        "startup model ignored: {:?}",
        stats.elapsed
    );
}

#[test]
fn audited_run_proves_shuffle_conservation() {
    let cluster = MrCluster::in_memory(3, 2);
    write_corpus(
        &cluster,
        "in.txt",
        &["the quick brown fox", "the lazy dog", "the quick dog"],
    );
    let audited = MrRunOptions {
        audit: true,
        ..Default::default()
    };
    let stats = cluster
        .run_with(&wordcount_job("in.txt", "out"), &audited)
        .unwrap();
    let report = cluster.last_audit().expect("report stored");
    report.check().unwrap_or_else(|v| {
        panic!("shuffle custody leaked: {v:?}");
    });
    // Every map task serves one chunk per reducer, and all of them
    // must make it across all four custody points.
    let shipped = report.total(hamr_trace::AuditStage::Ship);
    assert_eq!(
        shipped.bins,
        (stats.map_tasks * stats.reduce_tasks) as u64,
        "one shuffle chunk per (map task, reducer)"
    );
    assert_eq!(shipped.bytes, stats.shuffled_bytes);
    let counts = read_outputs(&cluster, "out");
    assert_eq!(counts["the"], 3);
}

/// There is one run path: `set_run_options(o)` + `run` and
/// `run_with(.., &o)` give the same output, the same audit verdict and
/// the same per-kind trace-event counts, with the ledger and the tracer
/// on the same run. A default-options run leaves `last_audit` alone.
#[test]
fn stored_options_and_run_with_are_one_path() {
    let cluster = MrCluster::in_memory(2, 1);
    write_corpus(&cluster, "in.txt", &["a b a", "b a", "c a b"]);
    cluster.run(&wordcount_job("in.txt", "plain")).unwrap();
    assert!(
        cluster.last_audit().is_none(),
        "default options audit nothing"
    );

    let sink = Arc::new(RingSink::new(8, 1 << 12));
    let opts = MrRunOptions {
        tracer: Tracer::new(sink.clone()),
        audit: true,
    };
    let kinds = |sink: &RingSink| {
        let mut counts = BTreeMap::new();
        for ev in sink.drain() {
            *counts
                .entry(RecordedEvent::from_event(&ev).name)
                .or_insert(0u64) += 1;
        }
        counts
    };

    cluster.set_run_options(opts.clone());
    let stored = cluster.run(&wordcount_job("in.txt", "stored")).unwrap();
    let stored_report = cluster.last_audit().expect("stored options audit");
    let stored_kinds = kinds(&sink);
    cluster.set_run_options(MrRunOptions::default());

    let direct = cluster
        .run_with(&wordcount_job("in.txt", "direct"), &opts)
        .unwrap();
    let direct_report = cluster.last_audit().expect("run_with audits");
    let direct_kinds = kinds(&sink);

    stored_report.check().expect("conservation holds");
    direct_report.check().expect("conservation holds");
    assert_eq!(stored_report.rows, direct_report.rows);
    assert!(stored_kinds["bin-shipped"] > 0 && stored_kinds["task-start"] > 0);
    assert_eq!(stored_kinds, direct_kinds);
    assert_eq!(stored.shuffled_bytes, direct.shuffled_bytes);
    assert_eq!(
        read_outputs(&cluster, "stored"),
        read_outputs(&cluster, "direct")
    );
    assert_eq!(
        read_outputs(&cluster, "plain"),
        read_outputs(&cluster, "direct")
    );
}
