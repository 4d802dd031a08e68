//! The durable flight journal end to end: a healthy run and a
//! fault-injected run journal into the same directory, and the
//! offline timeline reconstructs both — the completed job with its
//! own numbers and no incident, the wedged job with its watchdog
//! incident (naming how many bins were parked) and stuck edge. A
//! job's numbers are what its `JobEnd` says, and they equal the
//! registry's difference across its run.

use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, FaultInjection, JobBuilder, JobGraph,
    RunError, RunOptions, Supervision, WatchdogAction, WatchdogConfig,
};
use hamr_mapred::{line_map_fn, reduce_fn as mr_reduce_fn, JobConf, MrCluster, ReduceOutput};
use hamr_trace::{
    Journal, JournalConfig, JournalRecord, SampleValue, Snapshot, StatsMode, Timeline,
    WatchdogClass,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Options for a supervised run: no caller sinks, so the flight
/// recorder's ring and private gauges stand in.
fn supervised(sup: Supervision) -> RunOptions {
    RunOptions {
        supervision: Some(sup),
        ..Default::default()
    }
}

fn wordcount(name: &str, lines: usize) -> JobGraph {
    let corpus: Vec<String> = (0..lines)
        .map(|i| format!("alpha beta gamma delta key{} alpha", i % 7))
        .collect();
    let mut job = JobBuilder::new(name);
    let loader = job.add_loader("lines", typed::vec_loader(corpus));
    let words = job.add_map(
        "split",
        typed::map_fn(|_line: u64, text: String, out: &mut Emitter| {
            for w in text.split_whitespace() {
                out.emit_t(0, &w.to_string(), &1u64);
            }
        }),
    );
    let counts = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(loader, words, Exchange::Local);
    job.connect(words, counts, Exchange::Hash);
    job.capture_output(counts);
    job.build().expect("wordcount graph")
}

fn fast_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        epoch: Duration::from_millis(20),
        patience: 5,
        action: WatchdogAction::Abort,
    }
}

fn journal_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hamr_journal_e2e_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn timeline_reconstructs_a_clean_and_a_killed_run_from_one_journal() {
    let dir = journal_dir("reconstruct");

    // Chapter 1: a healthy audited run.
    let shuffled = {
        let cluster = Cluster::new(ClusterConfig::local(3, 2));
        cluster.enable_journal(&dir).expect("enable journal");
        let result = cluster
            .run_with(
                wordcount("wc-clean", 200),
                &supervised(Supervision {
                    watchdog: fast_watchdog(),
                    doctor_dir: None,
                }),
            )
            .expect("healthy run");
        let report = cluster.last_audit().expect("supervised runs are audited");
        report.check().expect("custody holds");
        assert!(
            result.metrics.shuffled_bytes > 0,
            "hash shuffle moved bytes"
        );
        result.metrics.shuffled_bytes
    };

    // Chapter 2: same journal directory, but node 1 drops every
    // flow-control ack — the shuffle wedges and the watchdog aborts.
    {
        let mut config = ClusterConfig::local(3, 2);
        config.runtime.bin_capacity = 1;
        config.runtime.out_window_bins = 1;
        config.runtime.fault = FaultInjection::DropAcks { node: 1 };
        let cluster = Cluster::new(config);
        cluster.enable_journal(&dir).expect("reopen journal");
        let err = cluster
            .run_with(
                wordcount("wc-deadlock", 400),
                &supervised(Supervision {
                    watchdog: fast_watchdog(),
                    doctor_dir: None,
                }),
            )
            .expect_err("dropped acks must wedge the shuffle");
        let RunError::Watchdog { class, .. } = err else {
            panic!("expected a watchdog abort, got: {err}");
        };
        assert_eq!(class, WatchdogClass::Backpressure);
    }

    // Chapter 3: simulate a process killed mid-job — a JobStart with
    // no matching JobEnd appended after both clusters are gone.
    {
        let journal = Journal::open(JournalConfig::new(&dir)).expect("reopen for tail");
        journal.append(&JournalRecord::JobStart {
            job: "wc-killed".into(),
            engine: "hamr".into(),
            t_us: journal.now_us(),
        });
    }

    // The offline reconstruction: both completed jobs with their
    // verdicts, the incident and stuck edge on the wedged one and only
    // there, and the killed job flagged as unfinished.
    let timeline = Timeline::load(&dir).expect("load timeline");
    let clean = timeline
        .jobs
        .iter()
        .find(|j| j.job == "wc-clean")
        .expect("clean job in timeline");
    assert_eq!(clean.ok(), Some(true));
    let row = clean.row.as_ref().expect("a JobEnd");
    assert_eq!(row.shuffled_bytes, shuffled, "{clean:?}");
    assert!(row.task_p99_us.is_some(), "{clean:?}");
    assert!(row.stuck.is_empty(), "{clean:?}");
    assert!(clean.incidents.is_empty(), "{clean:?}");

    let wedged = timeline
        .jobs
        .iter()
        .find(|j| j.job == "wc-deadlock")
        .expect("wedged job in timeline");
    assert_eq!(wedged.ok(), Some(false));
    let parked = wedged
        .incidents
        .iter()
        .find(|i| i.class.to_lowercase().contains("backpressure"))
        .and_then(|i| i.detail.split(" deferred bin(s)").next())
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse::<u64>().ok());
    assert!(
        parked.is_some_and(|n| n > 0),
        "backpressure incident journaled with its deferred-bin count: {:?}",
        wedged.incidents
    );
    let stuck = &wedged.row.as_ref().expect("a JobEnd").stuck;
    assert!(
        stuck.iter().any(|e| e.dst == 1 && e.bins > 0),
        "the JobEnd names the edge stuck toward the ack-dropper: {stuck:?}"
    );

    let unfinished = timeline.unfinished();
    assert!(
        unfinished.iter().any(|j| j.job == "wc-killed"),
        "killed-mid-flight job reported unfinished: {unfinished:?}"
    );
    let rendered = timeline.render();
    assert!(
        rendered
            .lines()
            .any(|l| l.starts_with("    stuck: edge ") && l.contains(" -> node 1 (")),
        "{rendered}"
    );
    assert!(rendered.contains("wc-clean"), "{rendered}");
    assert!(rendered.contains("wc-deadlock"), "{rendered}");
    assert!(rendered.contains("KILLED MID-FLIGHT"), "{rendered}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `HAMR_JOURNAL` env hookup: `auto` gives each cluster its own
/// per-process subdirectory and `Timeline::load` on the parent merges
/// them. Env vars are process-global, so this test sets the explicit
/// directory form only long enough to build one cluster.
#[test]
fn env_var_enables_the_journal_for_a_cluster() {
    let dir = journal_dir("envvar");
    std::env::set_var("HAMR_JOURNAL", &dir);
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    std::env::remove_var("HAMR_JOURNAL");
    assert_eq!(
        cluster.journal_dir().as_deref(),
        Some(dir.as_path()),
        "cluster picked the journal up from the environment"
    );
    cluster
        .run_with(
            wordcount("wc-env", 100),
            &supervised(Supervision::default()),
        )
        .expect("healthy run");
    drop(cluster);
    let timeline = Timeline::load(&dir).expect("load timeline");
    assert!(
        timeline
            .jobs
            .iter()
            .any(|j| j.job == "wc-env" && j.ok() == Some(true)),
        "{:?}",
        timeline.jobs
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The statistics plane sketches the shuffle and nothing else: a
/// `Loader →(Local) Map →(Hash) Reduce` job journals one edge summary,
/// its hash edge's, and no loader line-offset keys.
#[test]
fn a_job_journals_only_its_hash_edges_stats() {
    let dir = journal_dir("hash_edge_stats");
    let mut config = ClusterConfig::local(2, 2);
    config.runtime.stats = StatsMode::Edges;
    let cluster = Cluster::new(config);
    cluster.enable_journal(&dir).expect("enable journal");
    let mut job = JobBuilder::new("one-hash-edge");
    let lines = (0..300)
        .map(|i| format!("k{} k{}", i % 13, i % 5))
        .collect();
    let loader = job.add_loader("lines", typed::vec_loader(lines));
    let words = job.add_map(
        "split",
        typed::map_fn(|_line: u64, text: String, out: &mut Emitter| {
            for w in text.split_whitespace() {
                out.emit_t(0, &w.to_string(), &1u64);
            }
        }),
    );
    let counts = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: String, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect(loader, words, Exchange::Local);
    job.connect(words, counts, Exchange::Hash);
    job.capture_output(counts);
    let result = cluster.run(job.build().unwrap()).expect("run");
    let snap = result.metrics.stats.expect("stats on");
    let journaled = hamr_trace::read_journal(&dir).expect("read journal");
    let stats: Vec<_> = journaled
        .records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Stats(s) => Some(s),
            _ => None,
        })
        .collect();
    assert_eq!(stats, [&snap]);
    let edges: Vec<(u32, u64)> = snap.edges.iter().map(|e| (e.edge, e.distinct)).collect();
    assert_eq!(edges, [(1, 13)], "edge 1 is the hash edge: {snap:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `pairs →(Hash) sum`, its loader resident under one tag: the first
/// run fills the store, every later one is served from it.
fn resident_sum(name: &str) -> JobGraph {
    let pairs = (0..3000u64).map(|i| (i % 97, i)).collect();
    let mut job = JobBuilder::new(name);
    let loader = job.add_loader("pairs", typed::pairs_loader(pairs));
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect(loader, sum, Exchange::Hash);
    job.capture_output(sum);
    job.resident(loader, "eq/pairs", 7);
    job.build().expect("resident sum graph")
}

/// A counter summed over one engine's series of a delta.
fn counter(delta: &Snapshot, name: &str, engine: &str) -> u64 {
    let series = delta.series.iter();
    let ours = series.filter(|s| s.name == name && s.labels.engine.as_deref() == Some(engine));
    ours.map(|s| match s.value {
        SampleValue::Counter(v) => v,
        _ => 0,
    })
    .sum()
}

fn hamr_counter(delta: &Snapshot, name: &str) -> u64 {
    counter(delta, name, "hamr")
}

/// p99 of the HAMR engine's task-latency histograms of a delta, merged:
/// the upper bound of the log2 bucket holding the 99th percentile.
fn hamr_p99(delta: &Snapshot) -> Option<u64> {
    let mut buckets = vec![0u64; 64];
    for s in &delta.series {
        match &s.value {
            SampleValue::Histogram(h)
                if s.name == "flowlet_task_latency_us"
                    && s.labels.engine.as_deref() == Some("hamr") =>
            {
                for (m, b) in buckets.iter_mut().zip(&h.buckets) {
                    *m += b;
                }
            }
            _ => {}
        }
    }
    let count: u64 = buckets.iter().sum();
    let target = (0.99 * count as f64).ceil() as u64;
    let mut seen = 0;
    buckets.iter().enumerate().find_map(|(b, n)| {
        seen += n;
        (count > 0 && seen >= target).then(|| if b == 0 { 0 } else { (1u64 << b) - 1 })
    })
}

/// A row's columns are what a snapshot of the registry before and
/// after the job's run gives, subtracted — the way the benchmark
/// harness attributes counters to a job — though each engine counts
/// them from the run alone: on HAMR shuffled bytes, shuffle records
/// (the loader feeds the one hash edge), cache hits, stall and p99; on
/// the `mapred` baseline, which reports into the cluster's plane and
/// reaches the journal attached after it joined, shuffled bytes.
#[test]
fn a_job_end_tally_equals_the_registry_delta_around_its_run() {
    let dir = journal_dir("row_equivalence");
    let mut config = ClusterConfig::local(3, 2);
    // A one-bin window makes flow control defer the fill job's bins,
    // so its stall column is not zero.
    config.runtime.bin_capacity = 8;
    config.runtime.out_window_bins = 1;
    let cluster = Cluster::new(config);
    let mr = MrCluster::in_memory(3, 2);
    mr.set_plane(cluster.registry().clone(), cluster.journal_slot());
    cluster.enable_journal(&dir).expect("enable journal");
    let mut want = Vec::new();
    for name in ["fill", "serve"] {
        let before = cluster.registry().snapshot();
        cluster
            .run_with(resident_sum(name), &RunOptions::default())
            .expect(name);
        let delta = cluster.registry().snapshot().delta(&before);
        let loader_out = delta.series.iter().filter(|s| s.labels.flowlet == Some(0));
        let loader_out = loader_out.filter(|s| s.name == "flowlet_records_out_total");
        let records = loader_out.map(|s| match s.value {
            SampleValue::Counter(v) => v,
            _ => 0,
        });
        want.push((
            name.to_string(),
            hamr_counter(&delta, "shuffled_bytes_total"),
            Some(records.sum()),
            Some(hamr_counter(&delta, "hamr_cache_hits_total")),
            Some(hamr_counter(&delta, "flowlet_stall_us_total")),
            hamr_p99(&delta),
        ));
    }
    let mut w = mr.dfs().create("words.txt").expect("create input");
    for i in 0..200 {
        w.write_line(&format!("alpha beta k{}", i % 11));
    }
    w.seal().expect("seal input");
    let before = cluster.registry().snapshot();
    let stats = mr.run(&mr_wordcount()).expect("mapred wordcount");
    let delta = cluster.registry().snapshot().delta(&before);

    let timeline = Timeline::load(&dir).expect("load timeline");
    let (hamr, mapred): (Vec<_>, Vec<_>) = timeline.jobs.iter().partition(|s| s.engine == "hamr");
    let got: Vec<_> = hamr
        .iter()
        .map(|s| {
            let r = s.row.as_ref().expect("a JobEnd");
            let cols = (r.shuffled_bytes, r.shuffle_records, r.cache_hits);
            (s.job.clone(), cols.0, cols.1, cols.2, r.stall_us, r.task_p99_us)
        })
        .collect();
    assert_eq!(got, want);
    let hits = |i: usize| want[i].3;
    assert_eq!((hits(0), hits(1)), (Some(0), Some(1)), "fill, then serve");
    let [span] = &mapred[..] else {
        panic!("one mapred job: {mapred:?}");
    };
    let row = span.row.as_ref().expect("a JobEnd");
    assert_eq!(row, &stats.row(), "journaled as the engine built it");
    assert_eq!(row.job, "words");
    assert_eq!(
        row.shuffled_bytes,
        counter(&delta, "shuffled_bytes_total", "mapred")
    );
    assert!(row.shuffled_bytes > 0);
    assert_eq!(row.distinct_keys, Some(13), "alpha, beta, k0..k10");
    assert_eq!((row.cache_hits, row.stall_us, row.task_p99_us), (None, None, None));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `mapred` word count over `words.txt`.
fn mr_wordcount() -> JobConf {
    JobConf::new(
        "words",
        vec!["words.txt".to_string()],
        "words-out",
        Arc::new(line_map_fn(|_off, line, out| {
            for w in line.split_whitespace() {
                out.emit_t(&w.to_string(), &1u64);
            }
        })),
        Arc::new(mr_reduce_fn(
            |k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
                out.emit_t(&k, &vs.iter().sum::<u64>());
            },
        )),
    )
}
