//! Causal-profiler integration tests: attribution must partition wall
//! time exactly, every shipped bin must meet one ingress at its
//! destination (what the `net` bucket counts on), and the
//! top-stall-edges ranking must name the edge that actually
//! backpressured a skewed run.

use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, RunOptions, RuntimeConfig,
    SchedMode,
};
use hamr_trace::{analyze, CausalReport, EventKind, RingSink, TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;

fn traced(tracer: Tracer) -> RunOptions {
    RunOptions {
        tracer,
        ..Default::default()
    }
}

fn config_with(sched: SchedMode) -> ClusterConfig {
    let mut config = ClusterConfig::local(3, 2);
    config.runtime.sched = sched;
    config
}

fn run_wordcount(cluster: &Cluster) -> (Vec<TraceEvent>, u64) {
    let sink = Arc::new(RingSink::new(16, 1 << 16));
    let mut job = JobBuilder::new("wc-causal");
    let lines: Vec<String> = (0..300)
        .map(|i| format!("alpha beta gamma w{} w{}", i % 13, i % 29))
        .collect();
    let loader = job.add_loader("lines", typed::vec_loader(lines));
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
    cluster
        .run_with(job.build().unwrap(), &traced(Tracer::new(sink.clone())))
        .unwrap();
    let dropped = sink.dropped();
    (sink.drain(), dropped)
}

/// One hot key over a one-bin window: the shape of the paper's skewed
/// HistogramRatings run, shrunk to test size. Every map bin funnels to
/// one reducer node, so the (map→sum, hot-node) edge must stall.
fn run_skewed(cluster: &Cluster) -> (Vec<TraceEvent>, u64) {
    let sink = Arc::new(RingSink::new(16, 1 << 16));
    let mut job = JobBuilder::new("skew-causal");
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
        .run_with(job.build().unwrap(), &traced(Tracer::new(sink.clone())))
        .unwrap();
    let dropped = sink.dropped();
    (sink.drain(), dropped)
}

/// Attribution buckets must sum to `lanes × wall` within 1% (the spec's
/// conservation bound; the sweep is exact by construction, so this
/// guards against double-counted or dropped segments sneaking in).
fn assert_conserved(report: &CausalReport) {
    let expected = report.lanes as u64 * report.wall_us;
    let got = report.total.total();
    let tolerance = expected / 100 + 1;
    assert!(
        got.abs_diff(expected) <= tolerance,
        "attribution not conserved: buckets sum to {got}us, lanes*wall = {expected}us"
    );
    let share_sum: f64 = report.shares().iter().sum();
    assert!(
        (share_sum - 1.0).abs() < 0.01,
        "shares must sum to 1, got {share_sum}"
    );
    for node in &report.per_node {
        let node_expected = node.lanes as u64 * report.wall_us;
        assert!(
            node.buckets.total().abs_diff(node_expected) <= node_expected / 100 + 1,
            "node {} buckets not conserved",
            node.node
        );
    }
}

fn all_modes() -> Vec<SchedMode> {
    vec![
        SchedMode::WorkStealing,
        SchedMode::Deterministic { seed: 7 },
    ]
}

#[test]
fn wordcount_attribution_conserves_wall_time_under_all_sched_modes() {
    for sched in all_modes() {
        let cluster = Cluster::new(config_with(sched));
        let (events, dropped) = run_wordcount(&cluster);
        assert_eq!(dropped, 0, "sized ring must not drop ({sched:?})");
        let report = analyze(&events, dropped);
        assert!(report.wall_us > 0);
        assert!(report.total.compute_us > 0, "work ran ({sched:?})");
        assert_conserved(&report);
    }
}

#[test]
fn skewed_attribution_conserves_and_names_the_hot_edge() {
    for sched in all_modes() {
        let mut config = config_with(sched);
        config.runtime = RuntimeConfig {
            bin_capacity: 8,
            out_window_bins: 1,
            sched: config.runtime.sched,
            ..Default::default()
        };
        let cluster = Cluster::new(config);
        let (events, dropped) = run_skewed(&cluster);
        assert_eq!(dropped, 0, "sized ring must not drop ({sched:?})");
        let report = analyze(&events, dropped);
        assert_conserved(&report);
        assert!(
            report.total.stall_us > 0,
            "one-bin window on a hot key must register stall time ({sched:?})"
        );
        // The ranking must name the map→sum shuffle edge (edge 1): its
        // stalls all funnel to the single node owning the hot key. The
        // loader's local edge may also stall under the global one-bin
        // window, but the shuffle edge must be present and hot.
        assert!(
            !report.stall_edges.is_empty(),
            "skewed run must record stall edges ({sched:?})"
        );
        let shuffle: Vec<_> = report
            .stall_edges
            .iter()
            .filter(|s| s.flowlet == 1 && s.edge == 1)
            .collect();
        assert!(
            !shuffle.is_empty(),
            "the hot shuffle edge must appear in the ranking ({sched:?})"
        );
        assert_eq!(
            shuffle.len(),
            1,
            "one hot key serializes on exactly one destination ({sched:?})"
        );
        assert!(shuffle[0].stalled_us > 0 && shuffle[0].stalls > 0);
        let top = &report.stall_edges[0];
        assert_eq!(
            (top.flowlet, top.edge),
            (1, 1),
            "the hot shuffle edge ranks first ({sched:?}): {:?}",
            report.stall_edges
        );
    }
}

/// Attribution's `net` bucket pairs `BinShipped{dst}` (+1) with a
/// `BinIngress` at `dst` (-1) by count, not by bin. That is sound when,
/// per destination node, the two counts are equal and the running
/// in-flight count over the time-sorted log never goes negative. At
/// one timestamp a ship counts first, as it does in the attribution.
fn assert_ships_meet_ingresses(events: &[TraceEvent], what: &str) {
    let mut moves: Vec<(u64, i64, u32)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::BinShipped { dst, .. } => Some((e.t_us, 1, dst)),
            EventKind::BinIngress { .. } => Some((e.t_us, -1, e.node)),
            _ => None,
        })
        .collect();
    moves.sort_by_key(|&(t, d, _)| (t, -d));
    let mut inflight: BTreeMap<u32, i64> = BTreeMap::new();
    for (t_us, d, node) in moves {
        let n = inflight.entry(node).or_default();
        *n += d;
        assert!(
            *n >= 0,
            "{what}: node {node} took in a bin nobody shipped by {t_us}us"
        );
    }
    assert!(!inflight.is_empty(), "{what}: no bin crossed an edge");
    for (node, n) in inflight {
        assert_eq!(
            n, 0,
            "{what}: {n} bins shipped to node {node} never arrived"
        );
    }
}

#[test]
fn every_shipped_bin_meets_one_ingress_at_its_destination() {
    let cluster = Cluster::new(config_with(SchedMode::WorkStealing));
    let (events, dropped) = run_wordcount(&cluster);
    assert_eq!(dropped, 0);
    assert_ships_meet_ingresses(&events, "three-node wordcount");

    // The served run of `resident.rs`: a resident hit's frames are
    // shipped and taken in where they are served. Only the served job
    // is traced.
    let cluster = Cluster::new(ClusterConfig::local(4, 2));
    let cached = |name| {
        let mut job = JobBuilder::new(name);
        let data = (0..1500u64).map(|i| (i, i * 3 + 5)).collect();
        let loader = job.add_loader("pairs", typed::pairs_loader(data));
        let sum = job.add_reduce(
            "sum",
            typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
                out.output_t(&k, &vs.sum::<u64>());
            }),
        );
        job.connect(loader, sum, Exchange::Hash);
        job.capture_output(sum);
        job.resident(loader, "t/served", 3);
        job.build().unwrap()
    };
    cluster.run(cached("served-a")).unwrap();
    let sink = Arc::new(RingSink::new(4, 1 << 14));
    cluster
        .run_with(cached("served-b"), &traced(Tracer::new(sink.clone())))
        .unwrap();
    assert_eq!(cluster.resident().stats().hits, 1);
    assert_eq!(sink.dropped(), 0);
    assert_ships_meet_ingresses(&sink.drain(), "served run");
}
