//! The self-verification layer end to end: audited runs prove bin
//! conservation on healthy jobs, and injected faults — a node that
//! swallows its completion broadcasts, a node that drops flow-control
//! acks — must trip the watchdog with the right classification, abort
//! the run instead of hanging, and leave a parsable flight-recorder
//! dump behind for `hamr doctor`. Supervision is one field of the
//! one run path, so this file also pins that path: stored options and
//! `run_with` agree, every sink combines with supervision on one run,
//! the default options trace and audit nothing, and what an aborted
//! job leaves in the registry's gauges never reaches the next job.

use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, FaultInjection, JobBuilder, JobGraph, Loader,
    RunError, RunOptions, SchedMode, Supervision, TaskContext, WatchdogAction, WatchdogConfig,
};
use hamr_trace::{
    AuditStage, EventKind, FlightRecord, MetricsRegistry, RecordedEvent, RingSink, Tracer,
    WatchdogClass, WatchdogTrip,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for a supervised run: no caller tracer, so the flight
/// recorder's ring stands in.
fn supervised(sup: Supervision) -> RunOptions {
    RunOptions {
        supervision: Some(sup),
        ..Default::default()
    }
}

/// Supervision over a caller-owned tracer: the flight recorder reads
/// the caller's events, the watchdog the registry's gauges.
fn supervised_tracer_only(sup: Supervision) -> RunOptions {
    RunOptions {
        tracer: Tracer::new(Arc::new(RingSink::new(8, 1 << 14))),
        ..supervised(sup)
    }
}

/// WordCount over `lines` copies of a fixed corpus: loader -> map
/// (split words) -> partial reduce (sum), hash-shuffled across nodes.
fn wordcount(name: &str, lines: usize) -> JobGraph {
    wordcount_on(name, lines, false)
}

/// The same job, its shuffle edge combining in-node when `combined`:
/// the map's workers then hold partials across tasks.
fn wordcount_on(name: &str, lines: usize, combined: bool) -> JobGraph {
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
    if combined {
        job.connect_combined(words, counts, Exchange::Hash, typed::sum_combiner());
    } else {
        job.connect(words, counts, Exchange::Hash);
    }
    job.capture_output(counts);
    job.build().expect("wordcount graph")
}

/// A fast abort-mode watchdog for fault tests: 20ms epochs, patience 5
/// — trips within ~120ms of the wedge instead of the 1s default.
fn fast_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        epoch: Duration::from_millis(20),
        patience: 5,
        action: WatchdogAction::Abort,
    }
}

/// Fresh per-test dump directory under the system temp dir.
fn dump_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hamr_doctor_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dump dir");
    dir
}

#[test]
fn audited_run_proves_conservation_on_a_healthy_job() {
    let cluster = Cluster::new(ClusterConfig::local(3, 2));
    let result = cluster
        .run_with(
            wordcount("wc-clean", 200),
            &supervised(Supervision::default()),
        )
        .expect("healthy run");
    let report = cluster.last_audit().expect("supervised runs are audited");
    report
        .check()
        .unwrap_or_else(|v| panic!("custody violated on a healthy job: {v:?}"));
    assert!(
        report.total(AuditStage::Consume).bins > 0,
        "bins moved through the ledger"
    );
    assert!(
        cluster.watchdog_events().is_empty(),
        "healthy job raised watchdog events: {:?}",
        cluster.watchdog_events()
    );
    let mut out = result.typed_output::<String, u64>(2);
    out.sort();
    assert_eq!(out.iter().find(|(k, _)| k == "alpha").unwrap().1, 400);
}

#[test]
fn swallowed_completion_trips_the_watchdog_as_hang() {
    let mut config = ClusterConfig::local(3, 2);
    config.runtime.fault = FaultInjection::SwallowEdgeComplete { node: 1 };
    let cluster = Cluster::new(config);
    let dir = dump_dir("hang");
    let sup = Supervision {
        watchdog: fast_watchdog(),
        doctor_dir: Some(dir.clone()),
    };
    for opts in [supervised(sup.clone()), supervised_tracer_only(sup)] {
        let err = cluster
            .run_with(wordcount("wc-hang", 200), &opts)
            .expect_err("a swallowed EdgeComplete must not complete");
        let RunError::Watchdog(WatchdogTrip {
            class,
            epoch,
            detail,
        }) = err
        else {
            panic!("expected a watchdog abort, got: {err}");
        };
        // How soon the trip comes is the host's speed plus `patience`
        // idle epochs, so this asserts what the wedge is, not when:
        // a hang, with nothing stuck in custody. Every bin the job
        // emitted was consumed; what is missing is a signal.
        assert_eq!(class, WatchdogClass::Hang, "detail: {detail}");
        assert!(
            detail.contains("completion signal") && !detail.contains("most-stuck"),
            "a hang names no stuck edge, epoch {epoch}: {detail}"
        );

        // The flight recorder dumped a parsable post-mortem.
        let path = dir.join("doctor_wc-hang.json");
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing doctor dump {path:?}: {e}"));
        let record = FlightRecord::parse(&raw).expect("parsable flight record");
        let trip = record.trip.as_ref().expect("trip recorded");
        assert_eq!(trip.class, WatchdogClass::Hang);
        assert_eq!(record.job, "wc-hang");
        assert!(
            record.audit.stuck_rows().is_empty(),
            "a lost completion leaves the ledger balanced: {:?}",
            record.audit.stuck_rows()
        );
        let findings = record.diagnose();
        assert!(
            findings[0].contains("hang"),
            "diagnosis leads with the trip: {findings:?}"
        );
        std::fs::remove_file(&path).expect("remove the dump");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same wedge, diagnosed: the job's error restates the trip, and
/// the doctor report says the trip's detail once.
#[test]
fn a_watchdog_abort_is_stated_once_in_the_doctor_report() {
    let mut config = ClusterConfig::local(3, 2);
    config.runtime.fault = FaultInjection::SwallowEdgeComplete { node: 1 };
    let cluster = Cluster::new(config);
    let dir = dump_dir("hang_once");
    let sup = Supervision {
        watchdog: fast_watchdog(),
        doctor_dir: Some(dir.clone()),
    };
    let err = cluster
        .run_with(wordcount("wc-hang-once", 200), &supervised(sup))
        .expect_err("a swallowed EdgeComplete must not complete");
    let RunError::Watchdog(WatchdogTrip { detail, .. }) = &err else {
        panic!("expected a watchdog abort, got: {err}");
    };
    let path = dir.join("doctor_wc-hang-once.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing doctor dump {path:?}: {e}"));
    let record = FlightRecord::parse(&raw).expect("parsable flight record");
    assert_eq!(record.error.as_deref(), Some(err.to_string().as_str()));
    let report = record.render();
    assert_eq!(report.matches(detail.as_str()).count(), 1, "{report}");
    assert!(!report.contains("job error"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_acks_trip_the_watchdog_as_backpressure_deadlock() {
    let mut config = ClusterConfig::local(3, 2);
    // One record per bin and a one-bin window: the shuffle wedges the
    // moment node 1 stops acking — every producer's window to node 1
    // stays full and deferred bins pile up behind it.
    config.runtime.bin_capacity = 1;
    config.runtime.out_window_bins = 1;
    config.runtime.fault = FaultInjection::DropAcks { node: 1 };
    let cluster = Cluster::new(config);
    let dir = dump_dir("backpressure");
    let sup = Supervision {
        watchdog: fast_watchdog(),
        doctor_dir: Some(dir.clone()),
    };
    for opts in [supervised(sup.clone()), supervised_tracer_only(sup)] {
        let err = cluster
            .run_with(wordcount("wc-deadlock", 400), &opts)
            .expect_err("dropped acks must wedge the shuffle");
        let RunError::Watchdog(WatchdogTrip {
            class,
            epoch,
            detail,
        }) = err
        else {
            panic!("expected a watchdog abort, got: {err}");
        };
        // Not how soon (that is the host's speed plus `patience` idle
        // epochs), but what: backpressure, and the widest custody gap
        // on an edge into the node that drops its acks.
        assert_eq!(class, WatchdogClass::Backpressure, "detail: {detail}");
        assert!(
            detail.contains("deferred"),
            "diagnostic names the deferred bins: {detail}"
        );
        assert!(
            detail.contains("-> node 1 ("),
            "the most-stuck edge leads to node 1, epoch {epoch}: {detail}"
        );

        // The post-mortem names a stuck edge toward the ack-dropping node.
        let path = dir.join("doctor_wc-deadlock.json");
        let raw = std::fs::read_to_string(&path).expect("doctor dump");
        let record = FlightRecord::parse(&raw).expect("parsable flight record");
        assert_eq!(
            record.trip.as_ref().expect("trip recorded").class,
            WatchdogClass::Backpressure
        );
        let gaps = record.audit.stuck_rows();
        assert!(
            gaps.iter().any(|(row, _)| row.dst == 1),
            "stuck rows name node 1: {gaps:?}"
        );
        let findings = record.diagnose();
        assert!(
            findings.iter().any(|f| f.contains("node 1")),
            "diagnosis names the stuck node: {findings:?}"
        );
        std::fs::remove_file(&path).expect("remove the dump");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whatever the caller traces, the watchdog reads live gauges: one map
/// task sleeping through thirty epochs is a busy worker, not a hang.
/// (When gauges were an option the caller could leave off, the watchdog
/// saw `busy = 0` forever and aborted this job.)
#[test]
fn supervised_run_with_a_tracer_only_profile_sees_busy_workers() {
    let mut job = JobBuilder::new("slow-map");
    let loader = job.add_loader("one", typed::pairs_loader(vec![(1u64, 1u64)]));
    let nap = job.add_map(
        "nap",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| {
            std::thread::sleep(Duration::from_millis(600));
            out.emit_t(0, &k, &v);
        }),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    job.connect(loader, nap, Exchange::Local);
    job.connect(nap, sum, Exchange::Hash);
    job.capture_output(sum);
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let result = cluster
        .run_with(
            job.build().expect("graph"),
            &supervised_tracer_only(Supervision {
                watchdog: fast_watchdog(),
                doctor_dir: None,
            }),
        )
        .expect("a long task is not a hang");
    assert!(
        cluster.watchdog_events().is_empty(),
        "healthy job raised watchdog events: {:?}",
        cluster.watchdog_events()
    );
    assert_eq!(result.typed_output::<u64, u64>(sum), vec![(1, 1)]);
}

#[test]
fn warn_mode_records_the_incident_without_aborting_a_live_job() {
    // A healthy job under an aggressive warn-mode watchdog with a
    // microscopic epoch: even if an epoch boundary catches the run
    // mid-stall, warn mode must never turn a completing job into an
    // error.
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let result = cluster
        .run_with(
            wordcount("wc-warn", 100),
            &supervised(Supervision {
                watchdog: WatchdogConfig {
                    epoch: Duration::from_millis(1),
                    patience: 2,
                    action: WatchdogAction::Warn,
                },
                doctor_dir: None,
            }),
        )
        .expect("warn mode never aborts");
    let report = cluster.last_audit().expect("supervised runs are audited");
    report.check().expect("conservation still proven");
    assert!(result.typed_output::<String, u64>(2).len() > 4);
}

#[test]
fn watchdog_off_disables_monitoring_but_not_the_ledger() {
    let mut config = ClusterConfig::local(2, 2);
    config.runtime.bin_capacity = 8;
    let cluster = Cluster::new(config);
    cluster
        .run_with(
            wordcount("wc-off", 50),
            &supervised(Supervision {
                watchdog: WatchdogConfig {
                    action: WatchdogAction::Off,
                    ..Default::default()
                },
                doctor_dir: None,
            }),
        )
        .expect("run");
    let report = cluster.last_audit().expect("supervised runs are audited");
    report.check().expect("audit independent of the watchdog");
    assert!(cluster.watchdog_events().is_empty());
}

/// The default watchdog, and no doctor dumps.
fn quiet_supervision() -> Supervision {
    Supervision {
        doctor_dir: None,
        ..Default::default()
    }
}

fn sorted_counts(result: &hamr_core::JobResult) -> Vec<(String, u64)> {
    let mut out = result.typed_output::<String, u64>(2);
    out.sort();
    out
}

#[test]
fn stored_options_and_run_with_are_one_path() {
    let mut config = ClusterConfig::local(2, 2);
    config.runtime.sched = SchedMode::Deterministic { seed: 2015 };
    let cluster = Cluster::new(config);
    let sink = Arc::new(RingSink::new(8, 1 << 15));
    let opts = RunOptions {
        tracer: Tracer::new(sink.clone()),
        ..supervised(quiet_supervision())
    };
    // Drain the sink into per-kind event counts.
    let kind_counts = || {
        assert_eq!(sink.dropped(), 0, "sized ring must not drop");
        let mut counts = BTreeMap::new();
        for ev in sink.drain() {
            *counts
                .entry(RecordedEvent::from_event(&ev).name)
                .or_insert(0) += 1;
        }
        counts
    };

    cluster.set_run_options(opts.clone());
    let stored = cluster.run(wordcount("wc-stored", 300)).expect("run");
    let stored_report = cluster.last_audit().expect("stored options supervise");
    let stored_kinds = kind_counts();
    cluster.set_run_options(RunOptions::default());

    let direct = cluster
        .run_with(wordcount("wc-direct", 300), &opts)
        .expect("run");
    let direct_report = cluster.last_audit().expect("run_with supervises");
    let direct_kinds = kind_counts();

    assert_eq!(sorted_counts(&stored), sorted_counts(&direct));
    assert_eq!(stored_report.check(), Ok(()));
    assert_eq!(direct_report.check(), Ok(()));
    assert_eq!(stored_report.rows, direct_report.rows);
    assert!(stored_kinds["task-start"] > 0 && stored_kinds["bin-shipped"] > 0);
    assert_eq!(stored_kinds, direct_kinds);
}

/// Sum of one live `hamr` gauge over its flowlets and, with `node`
/// `None`, over all nodes.
fn gauge_total(registry: &MetricsRegistry, name: &str, node: Option<u32>) -> i64 {
    let gauges = registry.live_gauges("hamr");
    gauges
        .iter()
        .filter(|g| g.name == name && (node.is_none() || g.labels.node == node))
        .map(|g| g.value)
        .sum()
}

#[test]
fn tracer_gauges_and_supervision_combine_on_one_run() {
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let sink = Arc::new(RingSink::new(16, 1 << 15));
    let opts = RunOptions {
        tracer: Tracer::new(sink.clone()),
        supervision: Some(quiet_supervision()),
    };
    let result = cluster
        .run_with(wordcount("wc-all", 300), &opts)
        .expect("run");
    assert!(sorted_counts(&result).len() > 4);

    let report = cluster.last_audit().expect("supervised runs are audited");
    assert_eq!(report.check(), Ok(()));
    assert!(report.total(AuditStage::Consume).bins > 0);
    assert!(cluster.watchdog_events().is_empty());

    // Every node's worker gauges are live in the registry beside the
    // caller's tracer, and back at rest once the run returned.
    let registry = cluster.registry();
    for node in 0..2 {
        assert_eq!(gauge_total(registry, "workers", Some(node)), 2);
        assert!(
            registry
                .live_gauges("hamr")
                .iter()
                .any(|g| g.name == "workers_busy" && g.labels.node == Some(node)),
            "node {node} registered workers_busy"
        );
        assert_eq!(gauge_total(registry, "workers_busy", Some(node)), 0);
    }
    // The caller's sink, not a private flight ring, holds the events.
    let events = sink.drain();
    let saw = |f: fn(&EventKind) -> bool| events.iter().any(|e| f(&e.kind));
    assert!(saw(|k| matches!(k, EventKind::TaskStart { .. })));
    assert!(saw(|k| matches!(k, EventKind::BinEmitted { .. })));
}

#[test]
fn default_options_trace_and_audit_nothing() {
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let opts = RunOptions::default();
    let result = cluster
        .run_with(wordcount("wc-plain", 300), &opts)
        .expect("run");
    assert!(sorted_counts(&result).len() > 4);
    assert!(cluster.last_audit().is_none(), "no supervision, no ledger");
    // Gauges are not an option: the plainest run moved them.
    assert_eq!(gauge_total(cluster.registry(), "workers", None), 4);
    assert_eq!(gauge_total(cluster.registry(), "workers_busy", None), 0);

    // A supervised run's report survives later unsupervised runs.
    cluster
        .run_with(
            wordcount("wc-audited", 300),
            &supervised(quiet_supervision()),
        )
        .expect("run");
    let report = cluster.last_audit().expect("supervised runs are audited");
    cluster.run(wordcount("wc-plain-again", 100)).expect("run");
    assert_eq!(
        cluster.last_audit().expect("report kept").rows,
        report.rows,
        "an unsupervised run must not touch last_audit"
    );
}

/// Registry cells outlive jobs. A job the watchdog aborts out of a
/// backpressure deadlock leaves its deferred bins counted in
/// `deferred_bins`; the next job on the same cluster must start every
/// gauge it registers from its own true value, or its watchdog reads
/// the dead job's residue as this job's backpressure.
#[test]
fn an_aborted_jobs_gauges_never_reach_the_next_job() {
    let mut config = ClusterConfig::local(3, 2);
    config.runtime.bin_capacity = 1;
    config.runtime.out_window_bins = 1;
    config.runtime.fault = FaultInjection::DropAcks { node: 1 };
    let cluster = Cluster::new(config);
    let sup = Supervision {
        watchdog: fast_watchdog(),
        doctor_dir: None,
    };
    let err = cluster
        .run_with(wordcount("wc-deadlock", 400), &supervised(sup.clone()))
        .expect_err("dropped acks must wedge the shuffle");
    assert!(
        matches!(
            err,
            RunError::Watchdog(WatchdogTrip {
                class: WatchdogClass::Backpressure,
                ..
            })
        ),
        "{err}"
    );
    let residue = gauge_total(cluster.registry(), "deferred_bins", Some(1));
    assert!(
        residue > 0,
        "the aborted job left node 1's deferred bins counted"
    );

    // One record per node is one bin per edge and destination: it fits
    // the one-bin window, so this job is healthy even on the
    // ack-dropping node. The loader deals key `k` to node `k`, whose
    // map task reads, mid-run, the gauge its node's runtime registered
    // before it ran any task, and naps through more than the watchdog's
    // whole patience.
    let seen_deferred = Arc::new(AtomicI64::new(0));
    let mut job = JobBuilder::new("after-the-abort");
    let loader = job.add_loader(
        "one-each",
        typed::pairs_loader((0..3u64).map(|k| (k, 1u64)).collect::<Vec<_>>()),
    );
    let probe = {
        let (registry, seen) = (cluster.registry().clone(), Arc::clone(&seen_deferred));
        job.add_map(
            "probe",
            typed::map_fn(move |k: u64, v: u64, out: &mut Emitter| {
                let on_my_node = gauge_total(&registry, "deferred_bins", Some(k as u32));
                seen.fetch_add(on_my_node, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(150));
                out.emit_t(0, &k, &v);
            }),
        )
    };
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    job.connect(loader, probe, Exchange::Local);
    job.connect(probe, sum, Exchange::Hash);
    job.capture_output(sum);
    let result = cluster
        .run_with(job.build().expect("graph"), &supervised(sup))
        .expect("the second job is healthy");
    assert_eq!(result.typed_output::<u64, u64>(sum).len(), 3);
    assert!(
        cluster.watchdog_events().is_empty(),
        "the healthy job's watchdog stayed silent: {:?}",
        cluster.watchdog_events()
    );
    assert_eq!(
        seen_deferred.load(Ordering::SeqCst),
        0,
        "mid-run, no node of the second job saw the first job's deferred bins"
    );
    for gauge in [
        "deferred_bins",
        "workers_busy",
        "splits_awaiting_read",
        "queue_depth",
        "pending_bin_bytes",
        "combine_held_bytes",
    ] {
        assert_eq!(gauge_total(cluster.registry(), gauge, None), 0, "{gauge}");
    }
}

/// Partials parked in combine buffers are data the watchdog cannot see
/// move. They must not change what a fault looks like: with acks
/// dropped the flush task hands them to flow control, where they read
/// as backpressure like any deferred bin; a completion swallowed
/// upstream of the map leaves them parked (the map never learns its
/// input is done) and still reads as a hang. However the job ended,
/// nothing is reported held afterwards.
#[test]
fn held_partials_do_not_change_what_a_fault_looks_like() {
    for (fault, wanted) in [
        (
            FaultInjection::DropAcks { node: 1 },
            WatchdogClass::Backpressure,
        ),
        (
            FaultInjection::SwallowEdgeComplete { node: 1 },
            WatchdogClass::Hang,
        ),
    ] {
        let mut config = ClusterConfig::local(3, 2);
        config.runtime.bin_capacity = 1;
        config.runtime.out_window_bins = 1;
        config.runtime.fault = fault;
        let cluster = Cluster::new(config);
        let sup = Supervision {
            watchdog: fast_watchdog(),
            doctor_dir: None,
        };
        let err = cluster
            .run_with(wordcount_on("wc-held", 400, true), &supervised(sup))
            .expect_err("the fault must wedge the job");
        let RunError::Watchdog(WatchdogTrip { class, detail, .. }) = err else {
            panic!("{fault:?}: expected a watchdog abort, got: {err}");
        };
        assert_eq!(class, wanted, "{fault:?}: {detail}");
        let report = cluster.last_audit().expect("supervised runs are audited");
        let row = report.combines[0];
        assert!(row.folded > 0, "{fault:?}: the edge combined: {row:?}");
        assert_eq!(
            gauge_total(cluster.registry(), "combine_held_bytes", None),
            0,
            "{fault:?}"
        );
    }
}

/// A job that dies with partials in its buffers says so: the ledger's
/// combine row is short by exactly the records that were never handed
/// on, instead of a result that is silently short. Node 0's map panics
/// on its last line, after a link too slow to acknowledge anything has
/// kept every earlier task's partials in the buffer.
#[test]
fn partials_dropped_with_an_aborted_job_show_in_the_ledger() {
    let mut config = ClusterConfig::local(2, 1);
    let latency = Duration::from_millis(100);
    config.net = hamr_simnet::NetConfig {
        latency,
        bandwidth: None,
        loopback_latency: Duration::ZERO,
    };
    config.runtime.bin_capacity = 4;
    config.runtime.sched = SchedMode::Deterministic { seed: 5 };
    let cluster = Cluster::new(config);
    let lines = 120u64;
    let mut job = JobBuilder::new("dies-holding");
    let loader = job.add_loader(
        "lines",
        typed::pairs_loader((0..lines).map(|i| (i, i)).collect::<Vec<_>>()),
    );
    let held_mid_run = Arc::new(AtomicI64::new(0));
    let words = {
        let (registry, seen) = (cluster.registry().clone(), Arc::clone(&held_mid_run));
        job.add_map(
            "fan-out",
            typed::map_fn(move |_at: u64, line: u64, out: &mut Emitter| {
                if line == lines - 2 {
                    // The last line dealt to node 0.
                    seen.store(
                        gauge_total(&registry, "combine_held_bytes", Some(0)),
                        Ordering::SeqCst,
                    );
                    panic!("line {line} is poison");
                }
                for word in 0..40u64 {
                    out.emit_t(0, &word, &1u64);
                }
            }),
        )
    };
    let counts = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    job.connect(loader, words, Exchange::Local);
    job.connect_combined(words, counts, Exchange::Hash, typed::sum_combiner());
    job.capture_output(counts);
    let sup = Supervision {
        watchdog: WatchdogConfig {
            action: WatchdogAction::Off,
            ..Default::default()
        },
        doctor_dir: None,
    };
    let err = cluster
        .run_with(job.build().expect("graph"), &supervised(sup))
        .expect_err("the map panics");
    assert!(matches!(err, RunError::NodePanic { .. }), "{err}");
    assert!(
        held_mid_run.load(Ordering::SeqCst) > 0,
        "mid-run, node 0 reported the partials it held"
    );
    assert_eq!(
        gauge_total(cluster.registry(), "combine_held_bytes", None),
        0,
        "the job is over: nothing is held"
    );
    let report = cluster.last_audit().expect("supervised runs are audited");
    let violations = report.check().expect_err("records died in a buffer");
    let v = violations
        .iter()
        .find(|v| v.field == "combined")
        .unwrap_or_else(|| panic!("no combine violation among {violations:?}"));
    let [offered, folded, drained, _] = v.stages;
    assert!(
        offered > folded + drained,
        "short, not long: in={offered} folded={folded} out={drained}"
    );
}

/// Forwards everything to the DFS line loader except `load`, which
/// panics: every split this loader was asked to prepare is read ahead
/// and then never read.
struct PreparedNeverLoaded(typed::DfsLineLoader);

impl Loader for PreparedNeverLoaded {
    fn split_count(&self, ctx: &TaskContext) -> usize {
        self.0.split_count(ctx)
    }
    fn prepare(&self, ctx: &TaskContext, index: usize) -> Option<Instant> {
        self.0.prepare(ctx, index)
    }
    fn load(&self, _ctx: &TaskContext, index: usize, _out: &mut Emitter) {
        panic!("injected: split {index} prepared, never loaded");
    }
}

/// Two 1 MB/s disks, one worker per node, eight unreplicated 30 KB
/// blocks of `in.txt`: four splits and 4 x 30 ms of device time per
/// node.
const BLOCK: Duration = Duration::from_millis(30);

fn cluster_on_modeled_disks(fault: FaultInjection) -> Cluster {
    let mut config = ClusterConfig::local(2, 1);
    config.runtime.fault = fault;
    config.disk = hamr_simdisk::DiskConfig::modeled(1_000_000, Duration::ZERO);
    config.dfs = hamr_dfs::DfsConfig {
        block_size: 30_000,
        replication: 1,
    };
    let cluster = Cluster::new(config);
    let mut w = cluster.dfs().create("in.txt").unwrap();
    for i in 0..8 * 30 {
        w.write_line(&format!("{:0>999}", i % 5));
    }
    w.seal().unwrap();
    cluster
}

/// Count the lines of `in.txt` by their number, read through `loader`.
fn count_lines(loader: Arc<dyn Loader>) -> JobGraph {
    let mut job = JobBuilder::new("read-ahead-abort");
    let loader = job.add_loader("text", loader);
    let key = job.add_map(
        "key",
        typed::map_fn(|_offset: u64, line: String, out: &mut Emitter| {
            out.emit_t(0, &line.trim_start_matches('0').to_string(), &1u64);
        }),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(loader, key, Exchange::Local);
    job.connect(key, sum, Exchange::Hash);
    job.capture_output(sum);
    job.build().unwrap()
}

/// A watchdog whose whole patience (15 ms) is shorter than one block.
fn impatient() -> Supervision {
    Supervision {
        watchdog: WatchdogConfig {
            epoch: Duration::from_millis(5),
            patience: 3,
            action: WatchdogAction::Abort,
        },
        doctor_dir: None,
    }
}

#[test]
fn a_read_ahead_never_outlives_its_job() {
    let cluster = cluster_on_modeled_disks(FaultInjection::None);

    // Job 1 dies between `prepare` and `load`: up to three blocks per
    // node are booked on the device and nobody reads them.
    let failed = cluster.run(count_lines(Arc::new(PreparedNeverLoaded(
        typed::dfs_line_loader("in.txt"),
    ))));
    assert!(
        matches!(failed, Err(RunError::NodePanic { .. })),
        "{failed:?}"
    );
    // Long enough for the abandoned reads to have completed: a booking
    // that survived would now serve job 2 for free.
    std::thread::sleep(4 * BLOCK);

    // Job 2, under the impatient watchdog. A split is dispatched when
    // its block has arrived, so for most of the job no worker is busy
    // and no bin moves — the node's runtime is waiting for its device,
    // and that is progress, not a hang.
    let reads_before: Vec<u64> = (0..2).map(|n| cluster.disk(n).metrics().read_ops).collect();
    let start = Instant::now();
    let result = cluster
        .run_with(
            count_lines(Arc::new(typed::dfs_line_loader("in.txt"))),
            &supervised(impatient()),
        )
        .expect("the second job is healthy");
    let wall = start.elapsed();
    let mut expected: Vec<(String, u64)> = ["", "1", "2", "3", "4"]
        .iter()
        .map(|k| (k.to_string(), 48))
        .collect();
    expected.sort();
    assert_eq!(sorted_counts(&result), expected);
    // Every block was charged in full: a node's four reads cannot end
    // before four blocks of device time have passed.
    assert!(wall >= 4 * BLOCK, "a stale booking served a read: {wall:?}");
    for (node, before) in reads_before.iter().enumerate() {
        assert_eq!(cluster.disk(node).metrics().read_ops - before, 4);
    }
    assert!(
        cluster.watchdog_events().is_empty(),
        "a runtime awaiting the read it submitted is not an incident: {:?}",
        cluster.watchdog_events()
    );
    assert_eq!(
        gauge_total(cluster.registry(), "splits_awaiting_read", None),
        0
    );
}

/// The other half: awaiting a device counts as progress only while the
/// device works. Node 1 swallows its completion broadcasts, so the job
/// wedges once the last block is mapped; the same impatient watchdog
/// that sat through every 30 ms read must then call the hang.
#[test]
fn a_completed_read_does_not_mask_a_lost_completion() {
    let cluster = cluster_on_modeled_disks(FaultInjection::SwallowEdgeComplete { node: 1 });
    let err = cluster
        .run_with(
            count_lines(Arc::new(typed::dfs_line_loader("in.txt"))),
            &supervised(impatient()),
        )
        .expect_err("a swallowed EdgeComplete must not complete");
    let RunError::Watchdog(WatchdogTrip { class, detail, .. }) = err else {
        panic!("expected a watchdog abort, got: {err}");
    };
    assert_eq!(class, WatchdogClass::Hang, "detail: {detail}");
    // It tripped after the reads, not during one: every block was read.
    for node in 0..2 {
        assert_eq!(cluster.disk(node).metrics().read_ops, 4, "node {node}");
    }
    assert_eq!(
        gauge_total(cluster.registry(), "splits_awaiting_read", None),
        0
    );
}
