//! Property tests on whole-engine invariants: the distributed result
//! must equal a sequential model regardless of cluster shape, window
//! size, memory budget, or scheduling nondeterminism.

use hamr_core::{typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Sequential reference for wordcount-style keyed sums.
fn model_sums(pairs: &[(u8, u64)]) -> BTreeMap<u64, u64> {
    let mut m = BTreeMap::new();
    for &(k, v) in pairs {
        *m.entry(u64::from(k)).or_insert(0) += v;
    }
    m
}

/// Run keyed sums through the engine with the given config knobs.
fn engine_sums(
    pairs: &[(u8, u64)],
    nodes: usize,
    threads: usize,
    window: usize,
    budget: usize,
    full_reduce: bool,
) -> BTreeMap<u64, u64> {
    let mut config = ClusterConfig::local(nodes, threads);
    config.runtime.out_window_bins = window;
    config.runtime.memory_budget = budget;
    config.runtime.bin_capacity = 16; // force multi-bin paths
    let cluster = Cluster::new(config);
    let mut job = JobBuilder::new("prop-sums");
    let items: Vec<(u64, u64)> = pairs.iter().map(|&(k, v)| (u64::from(k), v)).collect();
    let loader = job.add_loader("pairs", typed::pairs_loader(items));
    let route = job.add_map(
        "route",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &v)),
    );
    let agg = if full_reduce {
        job.add_reduce(
            "sum",
            typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
                out.output_t(&k, &vs.sum::<u64>());
            }),
        )
    } else {
        job.add_partial_reduce("sum", typed::sum_reducer::<u64>())
    };
    job.connect(loader, route, Exchange::Local);
    job.connect(route, agg, Exchange::Hash);
    job.capture_output(agg);
    let result = cluster.run(job.build().unwrap()).unwrap();
    result.typed_output::<u64, u64>(agg).into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The distributed sum equals the sequential model for arbitrary
    /// inputs, cluster sizes, and both reducer kinds.
    #[test]
    fn keyed_sums_match_model(
        pairs in prop::collection::vec((any::<u8>(), 0u64..1000), 0..300),
        nodes in 1usize..5,
        threads in 1usize..4,
        full_reduce: bool,
    ) {
        let got = engine_sums(&pairs, nodes, threads, 32, 1 << 20, full_reduce);
        prop_assert_eq!(got, model_sums(&pairs));
    }

    /// Flow-control window size never changes the answer.
    #[test]
    fn window_size_does_not_change_answers(
        pairs in prop::collection::vec((any::<u8>(), 0u64..100), 1..200),
        window in 1usize..6,
    ) {
        let tight = engine_sums(&pairs, 3, 2, window, 1 << 20, false);
        prop_assert_eq!(tight, model_sums(&pairs));
    }

    /// Memory budget (spill vs in-memory reduce) never changes the
    /// answer.
    #[test]
    fn memory_budget_does_not_change_answers(
        pairs in prop::collection::vec((any::<u8>(), 0u64..100), 1..200),
        budget in prop::sample::select(vec![128usize, 4096, 1 << 20]),
    ) {
        let got = engine_sums(&pairs, 2, 2, 32, budget, true);
        prop_assert_eq!(got, model_sums(&pairs));
    }

    /// Broadcast delivers every record to every node exactly once.
    #[test]
    fn broadcast_multiplies_by_node_count(
        values in prop::collection::vec(0u64..1000, 1..50),
        nodes in 1usize..5,
    ) {
        let cluster = Cluster::new(ClusterConfig::local(nodes, 2));
        let mut job = JobBuilder::new("prop-bcast");
        let items: Vec<(u64, u64)> =
            values.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect();
        let loader = job.add_loader("vals", typed::pairs_loader(items));
        let stamp = job.add_map(
            "stamp",
            typed::map_fn(|_k: u64, v: u64, out: &mut Emitter| {
                out.emit_t(0, &0u64, &v);
            }),
        );
        let total = job.add_partial_reduce("total", typed::sum_reducer::<u64>());
        job.connect(loader, stamp, Exchange::Broadcast);
        job.connect(stamp, total, Exchange::Hash);
        job.capture_output(total);
        let result = cluster.run(job.build().unwrap()).unwrap();
        let got: u64 = result
            .typed_output::<u64, u64>(total)
            .iter()
            .map(|(_, v)| v)
            .sum();
        let expected: u64 = values.iter().sum::<u64>() * nodes as u64;
        prop_assert_eq!(got, expected);
    }

    /// KeyNode routing delivers each record to exactly the named node.
    #[test]
    fn key_node_routes_exactly_once(
        targets in prop::collection::vec(0u64..16, 1..60),
        nodes in 1usize..5,
    ) {
        let cluster = Cluster::new(ClusterConfig::local(nodes, 2));
        let mut job = JobBuilder::new("prop-keynode");
        let items: Vec<(u64, u64)> =
            targets.iter().enumerate().map(|(i, &t)| (i as u64, t)).collect();
        let loader = job.add_loader("targets", typed::pairs_loader(items));
        let route = job.add_map(
            "to-node",
            typed::map_fn(|i: u64, target: u64, out: &mut Emitter| {
                out.emit_t(0, &target, &i);
            }),
        );
        let check = job.add_map(
            "check",
            typed::map_ctx_fn(|ctx, target: u64, i: u64, out: &mut Emitter| {
                assert_eq!(target as usize % ctx.nodes, ctx.node);
                out.output_t(&i, &target);
            }),
        );
        job.connect(loader, route, Exchange::Local);
        job.connect(route, check, Exchange::KeyNode);
        job.capture_output(check);
        let result = cluster.run(job.build().unwrap()).unwrap();
        let mut got = result.typed_output::<u64, u64>(check);
        got.sort();
        let mut expected: Vec<(u64, u64)> =
            targets.iter().enumerate().map(|(i, &t)| (i as u64, t)).collect();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    /// A three-stage map chain applies functions in order for every
    /// record (pipeline correctness under concurrency).
    #[test]
    fn map_chain_composes(
        values in prop::collection::vec(0u64..10_000, 1..100),
    ) {
        let cluster = Cluster::new(ClusterConfig::local(3, 2));
        let mut job = JobBuilder::new("prop-chain");
        let items: Vec<(u64, u64)> =
            values.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect();
        let loader = job.add_loader("vals", typed::pairs_loader(items));
        let add = job.add_map(
            "add3",
            typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &(v + 3))),
        );
        let double = job.add_map(
            "double",
            typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &(v * 2))),
        );
        let sink = job.add_map(
            "sink",
            typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.output_t(&k, &v)),
        );
        job.connect(loader, add, Exchange::Hash);
        job.connect(add, double, Exchange::Hash);
        job.connect(double, sink, Exchange::Local);
        job.capture_output(sink);
        let result = cluster.run(job.build().unwrap()).unwrap();
        let mut got = result.typed_output::<u64, u64>(sink);
        got.sort();
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(got[i], (i as u64, (v + 3) * 2));
        }
    }
}
