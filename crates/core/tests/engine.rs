//! End-to-end engine tests: full jobs through the multi-node runtime.

use hamr_core::{typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, RunError};

fn local_cluster(nodes: usize, threads: usize) -> Cluster {
    Cluster::new(ClusterConfig::local(nodes, threads))
}

fn wordcount_lines() -> Vec<String> {
    vec![
        "the quick brown fox".into(),
        "the lazy dog".into(),
        "the quick dog".into(),
        "fox".into(),
    ]
}

fn expected_counts() -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = vec![
        ("brown".into(), 1),
        ("dog".into(), 2),
        ("fox".into(), 2),
        ("lazy".into(), 1),
        ("quick".into(), 2),
        ("the".into(), 3),
    ];
    v.sort();
    v
}

fn split_words(_k: u64, line: String, out: &mut Emitter) {
    for w in line.split_whitespace() {
        out.emit_t(0, &w.to_string(), &1u64);
    }
}

#[test]
fn wordcount_with_partial_reduce() {
    let cluster = local_cluster(3, 2);
    let mut job = JobBuilder::new("wc-partial");
    let loader = job.add_loader("lines", typed::vec_loader(wordcount_lines()));
    let map = job.add_map("split", typed::map_fn(split_words));
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(loader, map, Exchange::Local);
    job.connect(map, sum, Exchange::Hash);
    job.capture_output(sum);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let mut out = result.typed_output::<String, u64>(sum);
    out.sort();
    assert_eq!(out, expected_counts());
}

#[test]
fn wordcount_with_full_reduce() {
    let cluster = local_cluster(4, 2);
    let mut job = JobBuilder::new("wc-reduce");
    let loader = job.add_loader("lines", typed::vec_loader(wordcount_lines()));
    let map = job.add_map("split", typed::map_fn(split_words));
    let red = job.add_reduce(
        "count",
        typed::reduce_fn(|k: String, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect(loader, map, Exchange::Local);
    job.connect(map, red, Exchange::Hash);
    job.capture_output(red);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let mut out = result.typed_output::<String, u64>(red);
    out.sort();
    assert_eq!(out, expected_counts());
}

#[test]
fn single_node_cluster_works() {
    let cluster = local_cluster(1, 1);
    let mut job = JobBuilder::new("wc-1");
    let loader = job.add_loader("lines", typed::vec_loader(wordcount_lines()));
    let map = job.add_map("split", typed::map_fn(split_words));
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(loader, map, Exchange::Local);
    job.connect(map, sum, Exchange::Hash);
    job.capture_output(sum);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let mut out = result.typed_output::<String, u64>(sum);
    out.sort();
    assert_eq!(out, expected_counts());
}

#[test]
fn multi_phase_dag_map_chain() {
    // loader -> map(x2) -> map(+1) -> reduce(collect)
    let cluster = local_cluster(2, 2);
    let mut job = JobBuilder::new("chain");
    let loader = job.add_loader(
        "nums",
        typed::pairs_loader((0..100u64).map(|i| (i, i)).collect()),
    );
    let double = job.add_map(
        "double",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &(v * 2))),
    );
    let inc = job.add_map(
        "inc",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &(v + 1))),
    );
    let sink = job.add_reduce(
        "sink",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            let vs: Vec<u64> = vs.collect();
            assert_eq!(vs.len(), 1);
            out.output_t(&k, &vs[0]);
        }),
    );
    job.connect(loader, double, Exchange::Hash);
    job.connect(double, inc, Exchange::Local);
    job.connect(inc, sink, Exchange::Hash);
    job.capture_output(sink);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let mut out = result.typed_output::<u64, u64>(sink);
    out.sort();
    assert_eq!(out.len(), 100);
    for (k, v) in out {
        assert_eq!(v, k * 2 + 1);
    }
}

#[test]
fn one_loader_feeds_two_flowlets() {
    // The paper's data-reuse case: load once, consume twice.
    let cluster = local_cluster(2, 2);
    let mut job = JobBuilder::new("fanout");
    let loader = job.add_loader(
        "nums",
        typed::pairs_loader((1..=10u64).map(|i| (i, i)).collect()),
    );
    let sum_all = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    let max_red = job.add_reduce(
        "max",
        typed::reduce_fn(|k: String, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.max().unwrap());
        }),
    );
    let to_sum = job.add_map(
        "tag-sum",
        typed::map_fn(|_k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &"total".to_string(), &v)),
    );
    let to_max = job.add_map(
        "tag-max",
        typed::map_fn(|_k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &"max".to_string(), &v)),
    );
    job.connect(loader, to_sum, Exchange::Local);
    job.connect(loader, to_max, Exchange::Local);
    job.connect(to_sum, sum_all, Exchange::Hash);
    job.connect(to_max, max_red, Exchange::Hash);
    job.capture_output(sum_all);
    job.capture_output(max_red);
    let result = cluster.run(job.build().unwrap()).unwrap();
    assert_eq!(
        result.typed_output::<String, u64>(sum_all),
        vec![("total".to_string(), 55)]
    );
    assert_eq!(
        result.typed_output::<String, u64>(max_red),
        vec![("max".to_string(), 10)]
    );
}

#[test]
fn broadcast_exchange_reaches_all_nodes() {
    let nodes = 3;
    let cluster = local_cluster(nodes, 2);
    let mut job = JobBuilder::new("bcast");
    let loader = job.add_loader("one", typed::pairs_loader(vec![(1u64, 7u64)]));
    // Each node's map instance sees the broadcast record and tags it
    // with its own node id.
    let stamp = job.add_map(
        "stamp",
        typed::map_ctx_fn(|ctx, _k: u64, v: u64, out: &mut Emitter| {
            out.output_t(&(ctx.node as u64), &v);
        }),
    );
    job.connect(loader, stamp, Exchange::Broadcast);
    job.capture_output(stamp);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let mut out = result.typed_output::<u64, u64>(stamp);
    out.sort();
    assert_eq!(out, vec![(0, 7), (1, 7), (2, 7)]);
}

#[test]
fn reduce_groups_all_values_for_key() {
    let cluster = local_cluster(3, 2);
    let mut job = JobBuilder::new("group");
    let pairs: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 7, i)).collect();
    let loader = job.add_loader("pairs", typed::pairs_loader(pairs));
    let red = job.add_reduce(
        "collect",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &(vs.count() as u64));
        }),
    );
    let route = job.add_map(
        "route",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &v)),
    );
    job.connect(loader, route, Exchange::Local);
    job.connect(route, red, Exchange::Hash);
    job.capture_output(red);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let mut out = result.typed_output::<u64, u64>(red);
    out.sort();
    assert_eq!(out.len(), 7);
    let total: u64 = out.iter().map(|(_, c)| c).sum();
    assert_eq!(total, 300);
    // 300 items over 7 keys: counts are 42 or 43.
    for (_, c) in out {
        assert!((42..=43).contains(&c));
    }
}

#[test]
fn reduce_spills_when_budget_tiny_and_stays_correct() {
    let mut config = ClusterConfig::local(2, 2);
    config.runtime.memory_budget = 512; // force spills
    let cluster = Cluster::new(config);
    let mut job = JobBuilder::new("spilly");
    let pairs: Vec<(u64, u64)> = (0..2000u64).map(|i| (i % 50, i)).collect();
    let loader = job.add_loader("pairs", typed::pairs_loader(pairs));
    let route = job.add_map(
        "route",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &v)),
    );
    let red = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect(loader, route, Exchange::Local);
    job.connect(route, red, Exchange::Hash);
    job.capture_output(red);
    let result = cluster.run(job.build().unwrap()).unwrap();
    assert!(
        result.metrics.total_spilled() > 0,
        "tiny budget must spill; metrics: {:?}",
        result.metrics.flowlets.get(&red)
    );
    let mut out = result.typed_output::<u64, u64>(red);
    out.sort();
    assert_eq!(out.len(), 50);
    let expected: u64 = (0..2000u64).sum();
    assert_eq!(out.iter().map(|(_, s)| s).sum::<u64>(), expected);
}

#[test]
fn tight_flow_control_window_still_completes() {
    let mut config = ClusterConfig::local(3, 2);
    config.runtime.out_window_bins = 1;
    config.runtime.bin_capacity = 8;
    let cluster = Cluster::new(config);
    let mut job = JobBuilder::new("fc");
    let pairs: Vec<(u64, u64)> = (0..5000u64).map(|i| (i, 1)).collect();
    let loader = job.add_loader("pairs", typed::pairs_loader(pairs));
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    let route = job.add_map(
        "route",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &(k % 10), &v)),
    );
    job.connect(loader, route, Exchange::Local);
    job.connect(route, sum, Exchange::Hash);
    job.capture_output(sum);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let out = result.typed_output::<u64, u64>(sum);
    assert_eq!(out.iter().map(|(_, v)| v).sum::<u64>(), 5000);
    assert!(
        result.metrics.total_stalls() > 0,
        "window of 1 must cause flow-control stalls"
    );
}

#[test]
fn flowlet_panic_surfaces_as_run_error() {
    let cluster = local_cluster(2, 2);
    let mut job = JobBuilder::new("boom");
    let loader = job.add_loader("pairs", typed::pairs_loader(vec![(1u64, 1u64)]));
    let bad = job.add_map(
        "bad",
        typed::map_fn(|_k: u64, _v: u64, _out: &mut Emitter| {
            panic!("user code exploded");
        }),
    );
    job.connect(loader, bad, Exchange::Hash);
    let err = cluster.run(job.build().unwrap()).unwrap_err();
    match err {
        RunError::NodePanic { message, .. } => {
            assert!(message.contains("user code exploded"), "got: {message}");
        }
        other => panic!("expected NodePanic, got {other}"),
    }
}

#[test]
fn dfs_line_loader_reads_with_locality() {
    let cluster = local_cluster(3, 2);
    // Write a text file into DFS.
    let mut w = cluster.dfs().create("input.txt").unwrap();
    for i in 0..50 {
        w.write_line(&format!("line {i} data"));
    }
    w.seal().unwrap();
    let mut job = JobBuilder::new("dfs-read");
    let loader = job.add_loader("text", typed::dfs_line_loader("input.txt"));
    let count = job.add_partial_reduce("count", typed::sum_reducer::<String>());
    let tag = job.add_map(
        "tag",
        typed::map_fn(|_off: u64, _line: String, out: &mut Emitter| {
            out.emit_t(0, &"lines".to_string(), &1u64)
        }),
    );
    job.connect(loader, tag, Exchange::Local);
    job.connect(tag, count, Exchange::Hash);
    job.capture_output(count);
    let result = cluster.run(job.build().unwrap()).unwrap();
    assert_eq!(
        result.typed_output::<String, u64>(count),
        vec![("lines".to_string(), 50)]
    );
}

#[test]
fn kv_store_persists_across_jobs() {
    let cluster = local_cluster(2, 2);
    // Job 1: store doubled values into the node-local KV shard.
    let mut job1 = JobBuilder::new("store");
    let loader = job1.add_loader(
        "pairs",
        typed::pairs_loader((0..20u64).map(|i| (i, i)).collect()),
    );
    let store = job1.add_map(
        "store",
        typed::map_ctx_fn(|ctx, k: u64, v: u64, out: &mut Emitter| {
            ctx.kv.put_t(&k, &(v * 2));
            out.output_t(&k, &v);
        }),
    );
    job1.connect(loader, store, Exchange::Hash);
    job1.capture_output(store);
    cluster.run(job1.build().unwrap()).unwrap();
    assert_eq!(cluster.kv().total_len(), 20);

    // Job 2: read them back from the same shards.
    let mut job2 = JobBuilder::new("load");
    let loader = job2.add_loader(
        "keys",
        typed::pairs_loader((0..20u64).map(|i| (i, ())).collect()),
    );
    let fetch = job2.add_map(
        "fetch",
        typed::map_ctx_fn(|ctx, k: u64, _v: (), out: &mut Emitter| {
            let v: u64 = ctx.kv.get_t(&k).expect("key owned by this node");
            out.output_t(&k, &v);
        }),
    );
    // Hash exchange guarantees each key lands on its owning shard.
    job2.connect(loader, fetch, Exchange::Hash);
    job2.capture_output(fetch);
    let result = cluster.run(job2.build().unwrap()).unwrap();
    let mut out = result.typed_output::<u64, u64>(fetch);
    out.sort();
    assert_eq!(out.len(), 20);
    for (k, v) in out {
        assert_eq!(v, k * 2);
    }
}

/// A fire of nothing — a partial reduce with no accumulator, a reduce
/// whose shards are all empty — is over at once.
#[test]
fn empty_loader_completes_immediately() {
    let cluster = local_cluster(2, 1);
    let mut job = JobBuilder::new("empty");
    let loader = job.add_loader("none", typed::pairs_loader(Vec::<(u64, u64)>::new()));
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    let group = job.add_reduce(
        "group",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.count())
        }),
    );
    job.connect(loader, sum, Exchange::Hash);
    job.connect(loader, group, Exchange::Hash);
    job.capture_output(sum);
    job.capture_output(group);
    let result = cluster.run(job.build().unwrap()).unwrap();
    assert!(result.output(sum).is_empty());
    assert!(result.output(group).is_empty());
    for f in [sum, group] {
        assert_eq!(result.metrics.flowlets[&f].tasks, 0, "flowlet {f}");
    }
}

#[test]
fn captured_output_raw_records() {
    let cluster = local_cluster(2, 1);
    let mut job = JobBuilder::new("raw");
    let loader = job.add_loader("one", typed::pairs_loader(vec![(5u64, 6u64)]));
    let cap = job.add_map(
        "cap",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.output_t(&k, &v)),
    );
    job.connect(loader, cap, Exchange::Local);
    job.capture_output(cap);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let captured = result.output(cap);
    assert_eq!(captured.len(), 1);
    let (key, value) = captured.iter().next().unwrap();
    assert_eq!(key, &hamr_codec::Codec::to_bytes(&5u64)[..]);
    assert_eq!(value, &hamr_codec::Codec::to_bytes(&6u64)[..]);
}

#[test]
fn metrics_report_activity() {
    let cluster = local_cluster(2, 2);
    let mut job = JobBuilder::new("metrics");
    let loader = job.add_loader(
        "pairs",
        typed::pairs_loader((0..500u64).map(|i| (i, 1u64)).collect()),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    job.connect(loader, sum, Exchange::Hash);
    job.capture_output(sum);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let lm = &result.metrics.flowlets[&loader];
    assert!(lm.tasks >= 2, "one split per node at least");
    assert_eq!(lm.records_out, 500);
    let sm = &result.metrics.flowlets[&sum];
    assert_eq!(sm.records_in, 500);
    assert_eq!(result.metrics.nodes.len(), 2);
    assert!(result.metrics.shuffled_messages > 0);
}

#[test]
fn repeated_jobs_on_one_cluster() {
    // Iterative pattern: many runs on the same cluster must not leak
    // state into each other (fresh fabric per job).
    let cluster = local_cluster(2, 2);
    for round in 0..5u64 {
        let mut job = JobBuilder::new(format!("round{round}"));
        let loader = job.add_loader(
            "pairs",
            typed::pairs_loader((0..50u64).map(|i| (i, round)).collect()),
        );
        let sum = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
        let tag = job.add_map(
            "tag",
            typed::map_fn(move |_k: u64, v: u64, out: &mut Emitter| {
                out.emit_t(0, &"r".to_string(), &v)
            }),
        );
        job.connect(loader, tag, Exchange::Local);
        job.connect(tag, sum, Exchange::Hash);
        job.capture_output(sum);
        let result = cluster.run(job.build().unwrap()).unwrap();
        assert_eq!(
            result.typed_output::<String, u64>(sum),
            vec![("r".to_string(), 50 * round)]
        );
    }
}
