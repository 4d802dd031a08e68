//! Tracing integration tests: the trace layer must observe the engine
//! without perturbing it, and the scenarios the layer exists for
//! (flow-control stalls, spills, shuffles) must actually show up.

use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, JobResult, RunOptions,
    RuntimeConfig,
};
use hamr_trace::{chrome_trace_json, json, EventKind, NoopSink, RingSink, TraceEvent, Tracer};
use std::sync::Arc;

fn traced(tracer: Tracer) -> RunOptions {
    RunOptions {
        tracer,
        ..Default::default()
    }
}

fn wordcount_lines() -> Vec<String> {
    (0..200)
        .map(|i| format!("alpha beta gamma delta w{} w{}", i % 17, i % 31))
        .collect()
}

fn run_wordcount(cluster: &Cluster, tracer: Option<Tracer>) -> JobResult {
    let mut job = JobBuilder::new("wc-traced");
    let loader = job.add_loader("lines", typed::vec_loader(wordcount_lines()));
    let map = job.add_map(
        "split",
        typed::map_fn(|_k: u64, line: String, out: &mut Emitter| {
            for w in line.split_whitespace() {
                out.emit_t(0, &w.to_string(), &1u64);
            }
        }),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(loader, map, Exchange::Local);
    job.connect(map, sum, Exchange::Hash);
    job.capture_output(sum);
    let graph = job.build().unwrap();
    match tracer {
        Some(t) => cluster.run_with(graph, &traced(t)).unwrap(),
        None => cluster.run(graph).unwrap(),
    }
}

/// One hot key: the hash exchange funnels every bin to one node.
fn run_skewed(cluster: &Cluster, tracer: Tracer) -> JobResult {
    let mut job = JobBuilder::new("skewed");
    let loader = job.add_loader(
        "ones",
        typed::pairs_loader((0..4000u64).map(|i| (i, 1u64)).collect()),
    );
    let tag = job.add_map(
        "hotkey",
        typed::map_fn(|_k: u64, v: u64, out: &mut Emitter| {
            out.emit_t(0, &"hot".to_string(), &v);
        }),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(loader, tag, Exchange::Local);
    job.connect(tag, sum, Exchange::Hash);
    job.capture_output(sum);
    cluster
        .run_with(job.build().unwrap(), &traced(tracer))
        .unwrap()
}

fn count_kind(events: &[TraceEvent], f: impl Fn(&EventKind) -> bool) -> usize {
    events.iter().filter(|e| f(&e.kind)).count()
}

#[test]
fn noop_sink_run_matches_untraced_run() {
    let cluster = Cluster::new(ClusterConfig::local(3, 2));
    let plain = run_wordcount(&cluster, None);
    let nooped = run_wordcount(&cluster, Some(Tracer::new(Arc::new(NoopSink))));
    let mut a = plain.typed_output::<String, u64>(2);
    let mut b = nooped.typed_output::<String, u64>(2);
    a.sort();
    b.sort();
    assert!(!a.is_empty());
    assert_eq!(a, b, "tracing with a no-op sink must not change results");
}

#[test]
fn traced_run_records_paired_task_events() {
    let cluster = Cluster::new(ClusterConfig::local(3, 2));
    let sink = Arc::new(RingSink::new(16, 8192));
    run_wordcount(&cluster, Some(Tracer::new(sink.clone())));
    let events = sink.drain();
    assert!(!events.is_empty());
    // drain() sorts by timestamp; timestamps must be monotonic.
    assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    let starts = count_kind(&events, |k| matches!(k, EventKind::TaskStart { .. }));
    let ends = count_kind(&events, |k| matches!(k, EventKind::TaskEnd { .. }));
    assert!(starts > 0);
    assert_eq!(starts, ends, "every TaskStart needs a TaskEnd");
    assert!(
        count_kind(&events, |k| matches!(k, EventKind::BinShipped { .. })) > 0,
        "a multi-node shuffle must ship bins"
    );
    assert!(
        count_kind(&events, |k| matches!(k, EventKind::NetSend { .. })) > 0,
        "cross-node traffic must be visible"
    );
    assert!(sink.dropped() == 0, "capacity was sized for the run");
}

#[test]
fn skewed_workload_stalls_but_balanced_does_not() {
    // Balanced wordcount on default flow control: no stalls.
    let cluster = Cluster::new(ClusterConfig::local(3, 2));
    let sink = Arc::new(RingSink::new(16, 8192));
    let balanced = run_wordcount(&cluster, Some(Tracer::new(sink.clone())));
    let events = sink.drain();
    assert_eq!(
        count_kind(&events, |k| matches!(k, EventKind::FlowControlStall { .. })),
        0,
        "balanced run must not stall"
    );
    assert!(balanced
        .metrics
        .flowlets
        .values()
        .all(|f| f.stall_time.is_zero() && f.flow_control_stalls == 0));

    // Skewed single-hot-key run on a one-bin window: stalls, recorded
    // both as trace events and as cumulative per-flowlet stall time.
    let mut config = ClusterConfig::local(3, 2);
    config.runtime = RuntimeConfig {
        bin_capacity: 8,
        out_window_bins: 1,
        ..Default::default()
    };
    let cluster = Cluster::new(config);
    let sink = Arc::new(RingSink::new(16, 1 << 15));
    let skewed = run_skewed(&cluster, Tracer::new(sink.clone()));
    let events = sink.drain();
    let stalls = count_kind(&events, |k| matches!(k, EventKind::FlowControlStall { .. }));
    let resumes = count_kind(&events, |k| {
        matches!(k, EventKind::FlowControlResume { .. })
    });
    assert!(stalls > 0, "one-bin window on a hot key must stall");
    assert_eq!(stalls, resumes, "every stall must resume");
    let total_stall: std::time::Duration =
        skewed.metrics.flowlets.values().map(|f| f.stall_time).sum();
    assert!(total_stall > std::time::Duration::ZERO);
    assert!(skewed
        .metrics
        .flowlets
        .values()
        .any(|f| f.flow_control_stalls > 0));
    // Output is still correct under backpressure.
    let out = skewed.typed_output::<String, u64>(2);
    assert_eq!(out, vec![("hot".to_string(), 4000u64)]);
}

#[test]
fn spills_emit_disk_and_spill_events() {
    let mut config = ClusterConfig::local(2, 2);
    config.runtime = RuntimeConfig {
        memory_budget: 512, // force reduce state to spill
        ..Default::default()
    };
    let cluster = Cluster::new(config);
    let sink = Arc::new(RingSink::new(16, 1 << 15));
    let mut job = JobBuilder::new("spilly");
    let loader = job.add_loader(
        "nums",
        typed::pairs_loader((0..3000u64).map(|i| (i, i)).collect()),
    );
    let red = job.add_reduce(
        "collect",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect(loader, red, Exchange::Hash);
    job.capture_output(red);
    cluster
        .run_with(job.build().unwrap(), &traced(Tracer::new(sink.clone())))
        .unwrap();
    let events = sink.drain();
    let spill_starts = count_kind(&events, |k| matches!(k, EventKind::SpillStart { .. }));
    let spill_ends = count_kind(&events, |k| matches!(k, EventKind::SpillEnd { .. }));
    assert!(spill_starts > 0, "a 512-byte budget must spill");
    assert_eq!(spill_starts, spill_ends);
    assert!(
        count_kind(&events, |k| matches!(k, EventKind::DiskWrite { .. })) > 0,
        "spill runs are disk writes"
    );
}

#[test]
fn chrome_export_is_valid_parseable_json() {
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let sink = Arc::new(RingSink::new(16, 8192));
    run_wordcount(&cluster, Some(Tracer::new(sink.clone())));
    let events = sink.drain();
    let out = chrome_trace_json(&events);
    let doc = json::parse(&out).expect("exporter must emit valid JSON");
    let arr = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("top-level traceEvents array");
    assert!(!arr.is_empty());
    let mut slices = 0;
    let mut meta = 0;
    for entry in arr {
        let ph = entry.get("ph").and_then(|v| v.as_str()).expect("ph field");
        assert!(matches!(ph, "X" | "i" | "M"), "unexpected phase {ph}");
        assert!(entry.get("pid").and_then(|v| v.as_u64()).is_some());
        if ph == "X" {
            assert!(entry.get("dur").and_then(|v| v.as_u64()).is_some());
            slices += 1;
        }
        if ph == "M" {
            meta += 1;
        }
    }
    assert!(slices > 0, "task spans must export as complete slices");
    assert!(meta > 0, "lane names must export as metadata");
}

/// The flush task — the drain of a flowlet's combine buffers ahead of
/// its completion — is a task like any other to the tools: a named
/// slice in the Chrome export, and counted in the producing flowlet's
/// metrics as one task of as many as the trace ended.
#[test]
fn the_flush_task_is_a_named_slice_and_a_counted_task() {
    let mut config = ClusterConfig::local(2, 1);
    // Nothing is acknowledged before the loaders are done, so their
    // workers hold partials when they run dry.
    let latency = std::time::Duration::from_millis(30);
    config.net = hamr_simnet::NetConfig {
        latency,
        bandwidth: None,
        loopback_latency: latency,
    };
    config.runtime.bin_capacity = 2;
    let cluster = Cluster::new(config);
    let mut job = JobBuilder::new("flush-traced");
    let loader = job.add_loader(
        "pairs",
        typed::pairs_loader((0..400u64).map(|i| (i % 100, 1u64)).collect()),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    job.connect_combined(loader, sum, Exchange::Hash, typed::sum_combiner());
    job.capture_output(sum);
    let sink = Arc::new(RingSink::new(16, 1 << 14));
    let result = cluster
        .run_with(job.build().unwrap(), &traced(Tracer::new(sink.clone())))
        .unwrap();
    assert_eq!(result.typed_output::<u64, u64>(sum).len(), 100);
    let events = sink.drain();

    let doc = json::parse(&chrome_trace_json(&events)).expect("valid JSON");
    let slices = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    let named = |name: &str| {
        let is = |e: &&json::Json| {
            e.get("ph").and_then(|v| v.as_str()) == Some("X")
                && e.get("name").and_then(|v| v.as_str()) == Some(name)
        };
        slices.iter().filter(is).count()
    };
    assert_eq!(named("loader-split"), 2);
    assert_eq!(named("flush-combine"), 2, "one flush per node");

    let flowlets = &result.metrics.flowlets;
    assert_eq!(
        flowlets[&loader].tasks, 4,
        "a split and a flush on each node"
    );
    let ended = |e: &&TraceEvent| matches!(e.kind, EventKind::TaskEnd { .. });
    let traced_tasks = events.iter().filter(ended).count() as u64;
    assert_eq!(
        traced_tasks,
        flowlets.values().map(|f| f.tasks).sum::<u64>()
    );
}
