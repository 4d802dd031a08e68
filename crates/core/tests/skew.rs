//! End-to-end skew-mitigation tests: the combiner must preserve engine
//! output exactly while its counters prove it actually engaged.
//! Combining is node-level: a worker's buffer outlives its tasks, so the
//! second half of this file holds the cross-task custody — what a busy
//! window keeps folding, what the flush task hands on and when, and that
//! nothing of it reaches a streaming job or a run with combining off.

use hamr_core::{
    stream, typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, JobResult, Loader,
    RunOptions, SchedMode, SkewConfig, Supervision, TaskContext,
};
use hamr_simnet::NetConfig;
use hamr_trace::{AuditStage, EventKind, TaskKind, TraceEvent, TraceSink, Tracer};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A cluster with an explicit skew configuration and the deterministic
/// scheduler, so every run of the same job is byte-for-byte repeatable.
fn skew_cluster(nodes: usize, threads: usize, skew: SkewConfig) -> Cluster {
    let mut config = ClusterConfig::local(nodes, threads);
    config.runtime.sched = SchedMode::Deterministic { seed: 7 };
    config.runtime.skew = skew;
    Cluster::new(config)
}

/// Input with one synthetic hot key: key 1 appears `hot` times, keys
/// 2..=cold once each. Values are all 1 so the expected sums are
/// trivially checkable.
fn skewed_pairs(hot: usize, cold: usize) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = (0..hot).map(|_| (1u64, 1u64)).collect();
    v.extend((2..=cold as u64 + 1).map(|k| (k, 1u64)));
    v
}

fn run_sum_job(cluster: &Cluster, pairs: Vec<(u64, u64)>, threshold_note: &str) -> JobResult {
    let mut job = JobBuilder::new(format!("skew-sum-{threshold_note}"));
    let loader = job.add_loader("pairs", typed::pairs_loader(pairs));
    let map = job.add_map(
        "ident",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &v)),
    );
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect(loader, map, Exchange::Local);
    job.connect_combined(map, sum, Exchange::Hash, typed::sum_combiner());
    job.capture_output(sum);
    cluster.run(job.build().unwrap()).unwrap()
}

fn sorted_output(result: &JobResult) -> Vec<(u64, u64)> {
    let mut out = result.typed_output::<u64, u64>(2);
    out.sort();
    out
}

fn expected(hot: usize, cold: usize) -> Vec<(u64, u64)> {
    let mut v = vec![(1u64, hot as u64)];
    v.extend((2..=cold as u64 + 1).map(|k| (k, 1u64)));
    v
}

#[test]
fn combiner_folds_duplicates_and_preserves_output() {
    let (hot, cold) = (1000, 30);
    let combined = run_sum_job(
        &skew_cluster(3, 2, SkewConfig::default()),
        skewed_pairs(hot, cold),
        "combine",
    );
    assert_eq!(sorted_output(&combined), expected(hot, cold));
    assert!(combined.metrics.total_combined() > 0);
    // Combined records are restored producer-side, so records_out of
    // the map stays comparable with the combiner-free engine.
    let map_out = combined.metrics.flowlets.get(&1).unwrap().records_out;
    assert_eq!(map_out, (hot + cold) as u64);
}

#[test]
fn every_mitigation_combination_produces_identical_output() {
    let (hot, cold) = (800, 25);
    let combos = [
        ("off", SkewConfig::off()),
        ("combine", SkewConfig::default()),
    ];
    let want = expected(hot, cold);
    for (name, cfg) in combos {
        let result = run_sum_job(&skew_cluster(4, 2, cfg), skewed_pairs(hot, cold), name);
        assert_eq!(
            sorted_output(&result),
            want,
            "mitigation combo '{name}' changed the engine output"
        );
    }
}

#[test]
fn audit_custody_balances_under_full_mitigation() {
    let (hot, cold) = (1500, 40);
    let cluster = skew_cluster(4, 2, SkewConfig::default());
    let mut job = JobBuilder::new("skew-audit");
    let loader = job.add_loader("pairs", typed::pairs_loader(skewed_pairs(hot, cold)));
    let map = job.add_map(
        "ident",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &v)),
    );
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect(loader, map, Exchange::Local);
    job.connect_combined(map, sum, Exchange::Hash, typed::sum_combiner());
    job.capture_output(sum);
    let audited = RunOptions {
        supervision: Some(Supervision::default()),
        ..Default::default()
    };
    let result = cluster.run_with(job.build().unwrap(), &audited).unwrap();
    let report = cluster.last_audit().expect("supervised runs are audited");
    report
        .check()
        .expect("custody must balance through the combine buffers");
    // The combiner side-table saw the pre/post-combine pair and never
    // emitted more than it consumed.
    assert!(!report.combines.is_empty());
    for row in &report.combines {
        assert!(row.records_in >= row.records_out);
    }
    let mut out = result.typed_output::<u64, u64>(sum);
    out.sort();
    assert_eq!(out, expected(hot, cold));
}

#[test]
fn single_node_and_single_worker_stay_correct() {
    // Degenerate shapes: every key's home is the producer (1 node) and
    // a lone worker (one combine buffer per node).
    for (nodes, threads) in [(1, 2), (2, 1)] {
        let result = run_sum_job(
            &skew_cluster(nodes, threads, SkewConfig::default()),
            skewed_pairs(300, 10),
            "degenerate",
        );
        assert_eq!(sorted_output(&result), expected(300, 10));
    }
}

// ------------------------------------------- cross-task (node-level) combining

/// Every split emits the same `KEYS` keys once, straight onto the
/// combining edge: a per-task combiner folds nothing, a node-level one
/// everything but the first sight of a key.
struct SameKeys {
    splits: usize,
}

const KEYS: u64 = 64;

impl Loader for SameKeys {
    fn split_count(&self, _ctx: &TaskContext) -> usize {
        self.splits
    }
    fn load(&self, _ctx: &TaskContext, _index: usize, out: &mut Emitter) {
        for key in 0..KEYS {
            out.emit_t(0, &key, &1u64);
        }
    }
}

/// SameKeys -Hash+sum-> Reduce, captured.
fn same_keys_job(name: &str, splits: usize) -> hamr_core::JobGraph {
    let mut job = JobBuilder::new(name);
    let loader = job.add_loader("same-keys", SameKeys { splits });
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect_combined(loader, sum, Exchange::Hash, typed::sum_combiner());
    job.capture_output(sum);
    job.build().unwrap()
}

/// A link (loopback included) on which nothing is acknowledged before
/// `2 * latency`: long after a node has run all of a small job's
/// producing tasks, so their windows provably stay where the first
/// bins put them. On an instant fabric the consumer acknowledges as
/// fast as it is scheduled and a drain at every task end is correct —
/// nothing can be asserted about folding there.
fn slow_link(latency: Duration) -> NetConfig {
    NetConfig {
        latency,
        bandwidth: None,
        loopback_latency: latency,
    }
}

fn audited() -> RunOptions {
    RunOptions {
        supervision: Some(Supervision::default()),
        ..Default::default()
    }
}

#[test]
fn a_busy_window_folds_across_the_tasks_of_a_node() {
    let (nodes, splits) = (2, 100);
    let mut scheds = vec![
        (SchedMode::WorkStealing, 1),
        (SchedMode::WorkStealing, 2),
        (SchedMode::WorkStealing, 4),
    ];
    scheds.extend([3, 7, 2015].map(|seed| (SchedMode::Deterministic { seed }, 2)));
    for (sched, workers) in scheds {
        let mut config = ClusterConfig::local(nodes, workers);
        config.net = slow_link(Duration::from_millis(150));
        config.runtime.sched = sched;
        let cluster = Cluster::new(config);
        let result = cluster
            .run_with(same_keys_job("same-keys", splits), &audited())
            .unwrap();
        let what = format!("{sched:?} x {workers}");

        // The oracle: every key once per split.
        let mut out = result.typed_output::<u64, u64>(1);
        out.sort();
        assert_eq!(
            out,
            (0..KEYS)
                .map(|k| (k, (nodes * splits) as u64))
                .collect::<Vec<_>>(),
            "{what}"
        );
        // Each node ships a key until its windows hold the low-water
        // mark of bins (eight task ends, a few more when workers race),
        // then folds until the flush: once per worker. A per-task
        // combiner delivers every key of every task.
        let report = cluster.last_audit().expect("audited");
        let delivered: u64 = report
            .rows
            .iter()
            .map(|row| row.stage(AuditStage::Deliver).records)
            .sum();
        let tasks = result.metrics.flowlets[&0].tasks;
        assert!(tasks >= (nodes * splits) as u64, "{what}: {tasks} tasks");
        assert!(
            delivered < tasks * KEYS / 4,
            "{what}: {delivered} records delivered by {tasks} tasks of {KEYS} keys"
        );
        assert!(delivered >= nodes as u64 * KEYS, "{what}: {delivered}");
        // Custody: emit == ship == deliver == consume on every row, and
        // every record offered to a buffer was folded or handed on.
        report.check().unwrap_or_else(|v| panic!("{what}: {v:?}"));
        let row = report.combines[0];
        assert_eq!(row.records_in, (nodes * splits) as u64 * KEYS, "{what}");
        assert_eq!(row.records_out, delivered, "{what}");
        assert_eq!(row.folded, row.records_in - delivered, "{what}");
        // The producer's own count is restored to what it emitted.
        assert_eq!(
            result.metrics.flowlets[&0].records_out, row.records_in,
            "{what}"
        );
    }
}

/// Keeps events in the order `record` was called: one total order
/// across threads and nodes.
#[derive(Default)]
struct OrderSink(Mutex<Vec<TraceEvent>>);

impl TraceSink for OrderSink {
    fn record(&self, ev: TraceEvent) {
        self.0.lock().unwrap().push(ev);
    }
}

#[test]
fn the_flush_precedes_completion_on_every_node() {
    let nodes = 3;
    for sched in [
        SchedMode::WorkStealing,
        SchedMode::Deterministic { seed: 11 },
    ] {
        let mut config = ClusterConfig::local(nodes, 2);
        config.net = slow_link(Duration::from_millis(40));
        config.runtime.sched = sched;
        let cluster = Cluster::new(config);
        let sink = Arc::new(OrderSink::default());
        let opts = RunOptions {
            tracer: Tracer::new(sink.clone()),
            ..Default::default()
        };
        cluster
            .run_with(same_keys_job("flush-order", 40), &opts)
            .unwrap();
        let events = sink.0.lock().unwrap();
        let position = |node: u32, wanted: &dyn Fn(&EventKind) -> bool| {
            events
                .iter()
                .position(|e| e.node == node && wanted(&e.kind))
        };
        // The consumer fires somewhere first; by then every node has
        // flushed, because the fire waits for every node's EdgeComplete
        // and a node sends it behind its flush task's bins.
        let first_fire = (0..nodes as u32)
            .filter_map(|n| {
                position(n, &|k| {
                    matches!(
                        k,
                        EventKind::TaskStart {
                            task: TaskKind::FireReduce,
                            flowlet: 1,
                            ..
                        }
                    )
                })
            })
            .min()
            .expect("the reduce fired");
        for node in 0..nodes as u32 {
            let flushed = position(node, &|k| {
                matches!(
                    k,
                    EventKind::TaskEnd {
                        task: TaskKind::FlushCombine,
                        flowlet: 0,
                        ..
                    }
                )
            })
            .unwrap_or_else(|| panic!("{sched:?}: node {node} held partials and must flush"));
            assert!(flushed < first_fire, "{sched:?}: node {node}");
            // And where a node's reduce has begun to fire, no bin of
            // the edge arrives any more: nothing was left behind.
            let fired = position(node, &|k| {
                matches!(
                    k,
                    EventKind::TaskStart {
                        task: TaskKind::FireReduce,
                        flowlet: 1,
                        ..
                    }
                )
            });
            if let Some(fired) = fired {
                let late = events[fired..].iter().any(|e| {
                    e.node == node && matches!(e.kind, EventKind::BinIngress { edge: 0, .. })
                });
                assert!(!late, "{sched:?}: a bin reached node {node} after its fire");
            }
        }
    }
}

/// What the emit path has always shipped on the shuffle edge of
/// `run_sum_job(skewed_pairs(800, 25))` on four two-worker nodes at
/// deterministic seed 7 — bins, records and raw payload bytes at the
/// ledger's ship point, before any link coding: with the combiner off
/// no buffer exists and the emit path is the one without it, byte for
/// byte.
const SHIP_OFF: (u64, u64, u64) = (14, 825, 3300);

#[test]
fn without_the_combiner_the_wire_carries_what_it_always_did() {
    let cluster = skew_cluster(4, 2, SkewConfig::off());
    cluster.set_run_options(RunOptions {
        supervision: Some(Supervision::default()),
        ..Default::default()
    });
    let result = run_sum_job(&cluster, skewed_pairs(800, 25), "off");
    assert_eq!(sorted_output(&result), expected(800, 25));
    let report = cluster.last_audit().expect("supervised runs are audited");
    let ship = report
        .rows
        .iter()
        .filter(|r| r.edge == 1)
        .fold((0, 0, 0), |t, r| {
            let s = r.stage(AuditStage::Ship);
            (t.0 + s.bins, t.1 + s.records, t.2 + s.bytes)
        });
    assert_eq!(ship, SHIP_OFF);
    assert_eq!(result.metrics.total_combined(), 0);
}

#[test]
fn a_streaming_job_hands_on_every_epochs_records_with_their_epoch() {
    // One record per bin and a two-bin window on a slow link: were a
    // stream's partials held for the window, an epoch's counts would
    // arrive behind its marker and land in a later window. (One node:
    // with several, a fast node's next epoch may overtake a slow node's
    // marker whatever the combiner does.)
    let run = |skew: SkewConfig| {
        let mut config = ClusterConfig::local(1, 2);
        config.net = slow_link(Duration::from_millis(15));
        config.runtime.bin_capacity = 1;
        config.runtime.out_window_bins = 2;
        config.runtime.skew = skew;
        let cluster = Cluster::new(config);
        let mut job = JobBuilder::new("stream-combined");
        let src = job.add_stream(
            "src",
            stream::bounded_stream(3, |_ctx, _epoch, out: &mut Emitter| {
                for i in 0..10u64 {
                    out.emit_t(0, &(i % 4), &1u64);
                }
            }),
        );
        let win = job.add_partial_reduce("window-sum", typed::sum_reducer::<u64>());
        job.connect_combined(src, win, Exchange::Hash, typed::sum_combiner());
        job.capture_output(win);
        let result = cluster.run(job.build().unwrap()).unwrap();
        let mut out = result.typed_output::<u64, u64>(win);
        out.sort();
        (out, result.metrics.total_combined())
    };
    // Per epoch: keys 0 and 1 three times, 2 and 3 twice.
    let windows: Vec<(u64, u64)> = [(0, 3), (1, 3), (2, 2), (3, 2)]
        .into_iter()
        .flat_map(|w| [w; 3])
        .collect();
    let (combined, folds) = run(SkewConfig::default());
    assert_eq!(combined, windows);
    assert_eq!(folds, 3 * 6, "each epoch task folds its duplicates");
    let (plain, folds) = run(SkewConfig::off());
    assert_eq!(plain, windows);
    assert_eq!(folds, 0);
}
