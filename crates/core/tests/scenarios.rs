//! Larger engine scenarios: multi-source DAGs, deep chains, metrics
//! semantics, and utilization/balance observability.

use hamr_core::{typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder};

#[test]
fn two_loaders_feed_one_reduce() {
    // A join-flavored DAG: edges from one source, labels from another,
    // reduced together by key (tagged values).
    let cluster = Cluster::new(ClusterConfig::local(3, 2));
    let mut job = JobBuilder::new("two-sources");
    let nums = job.add_loader(
        "nums",
        typed::pairs_loader((0..50u64).map(|i| (i, (0u8, i * 2))).collect::<Vec<_>>()),
    );
    let names = job.add_loader(
        "names",
        typed::pairs_loader((0..50u64).map(|i| (i, (1u8, i + 100))).collect::<Vec<_>>()),
    );
    let join = job.add_reduce(
        "join",
        typed::reduce_fn(|k: u64, vs: typed::Values<(u8, u64)>, out: &mut Emitter| {
            let vs: Vec<(u8, u64)> = vs.collect();
            assert_eq!(vs.len(), 2, "one record from each source per key");
            let double = vs.iter().find(|(t, _)| *t == 0).unwrap().1;
            let plus = vs.iter().find(|(t, _)| *t == 1).unwrap().1;
            out.output_t(&k, &(double + plus));
        }),
    );
    job.connect(nums, join, Exchange::Hash);
    job.connect(names, join, Exchange::Hash);
    job.capture_output(join);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let mut got = result.typed_output::<u64, u64>(join);
    got.sort();
    assert_eq!(got.len(), 50);
    for (k, v) in got {
        assert_eq!(v, k * 2 + k + 100);
    }
}

#[test]
fn deep_chain_of_mixed_flowlets() {
    // loader -> map -> partial -> map -> reduce -> map (6 stages).
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let mut job = JobBuilder::new("deep");
    let loader = job.add_loader(
        "pairs",
        typed::pairs_loader((0..200u64).map(|i| (i % 20, 1u64)).collect::<Vec<_>>()),
    );
    let m1 = job.add_map(
        "m1",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &v)),
    );
    let p = job.add_partial_reduce(
        "psum",
        typed::partial_fn::<u64, u64, u64, _, _, _>(
            |v| v,
            |a, v| a + v,
            |_ctx, k, acc, out: &mut Emitter| out.emit_t(0, &(k % 4), &acc),
        ),
    );
    let m2 = job.add_map(
        "m2",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &v)),
    );
    let r = job.add_reduce(
        "rsum",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.emit_t(0, &k, &vs.sum::<u64>());
        }),
    );
    let m3 = job.add_map(
        "m3",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.output_t(&k, &v)),
    );
    job.connect(loader, m1, Exchange::Local);
    job.connect(m1, p, Exchange::Hash);
    job.connect(p, m2, Exchange::Local);
    job.connect(m2, r, Exchange::Hash);
    job.connect(r, m3, Exchange::Local);
    job.capture_output(m3);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let got = result.typed_output::<u64, u64>(m3);
    // 200 units survive the whole chain, re-keyed to 4 buckets.
    assert_eq!(got.iter().map(|(_, v)| v).sum::<u64>(), 200);
    assert_eq!(got.len(), 4);
}

#[test]
fn batch_loader_and_stream_source_coexist() {
    use hamr_core::stream;
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let mut job = JobBuilder::new("hybrid");
    let batch = job.add_loader(
        "batch",
        typed::pairs_loader(vec![("batch".to_string(), 10u64)]),
    );
    let streamed = job.add_stream(
        "stream",
        stream::bounded_stream(3, |_ctx, _e, out: &mut Emitter| {
            out.emit_t(0, &"stream".to_string(), &1u64);
        }),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(batch, sum, Exchange::Hash);
    job.connect(streamed, sum, Exchange::Hash);
    job.capture_output(sum);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let got = result.typed_output::<String, u64>(sum);
    let total: u64 = got.iter().map(|(_, v)| v).sum();
    // batch: 10; stream: 2 nodes x 3 epochs x 1.
    assert_eq!(total, 16);
}

#[test]
fn spill_metrics_reflect_budget() {
    let mut config = ClusterConfig::local(2, 2);
    config.runtime.memory_budget = 256;
    let cluster = Cluster::new(config);
    let mut job = JobBuilder::new("spilly");
    let loader = job.add_loader(
        "pairs",
        typed::pairs_loader((0..3000u64).map(|i| (i % 40, i)).collect::<Vec<_>>()),
    );
    let r = job.add_reduce(
        "collect",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &(vs.count() as u64));
        }),
    );
    job.connect(loader, r, Exchange::Hash);
    job.capture_output(r);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let fm = &result.metrics.flowlets[&r];
    assert!(fm.spilled_bytes > 0, "budget of 256 B must spill");
    assert_eq!(fm.kind, "reduce");
    assert_eq!(
        result
            .typed_output::<u64, u64>(r)
            .iter()
            .map(|(_, c)| c)
            .sum::<u64>(),
        3000
    );
}

#[test]
fn skewed_keys_show_up_as_busy_imbalance() {
    // All records to one key => one node does nearly all partial-
    // reduce work; the balance metric must see it.
    let nodes = 4;
    let cluster = Cluster::new(ClusterConfig::local(nodes, 2));
    let build = |skewed: bool| {
        let mut job = JobBuilder::new("skew");
        let loader = job.add_loader(
            "pairs",
            typed::pairs_loader(
                (0..20_000u64)
                    .map(|i| (if skewed { 7 } else { i % 256 }, i))
                    .collect::<Vec<_>>(),
            ),
        );
        let work = job.add_map(
            "work",
            typed::map_fn(|k: u64, v: u64, out: &mut Emitter| {
                // A bit of CPU per record so busy time is measurable.
                let mut acc = v;
                for _ in 0..50 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                out.emit_t(0, &k, &(acc % 1000));
            }),
        );
        let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
        job.connect(loader, work, Exchange::Hash);
        job.connect(work, sum, Exchange::Hash);
        job.capture_output(sum);
        job
    };
    let skewed = cluster.run(build(true).build().unwrap()).unwrap();
    let balanced = cluster.run(build(false).build().unwrap()).unwrap();
    let si = skewed.metrics.busy_imbalance();
    let bi = balanced.metrics.busy_imbalance();
    assert!(
        si > bi,
        "skewed run should be less balanced: skewed {si:.3} vs balanced {bi:.3}"
    );
}

#[test]
fn dot_export_of_a_real_job() {
    let mut job = JobBuilder::new("render");
    let loader = job.add_loader("src", typed::pairs_loader(vec![(1u64, 1u64)]));
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    job.connect(loader, sum, Exchange::Hash);
    job.capture_output(sum);
    let dot = job.build().unwrap().to_dot();
    assert!(dot.contains("digraph"));
    assert!(dot.contains("partial-reduce"));
    assert!(dot.lines().count() >= 6);
}

#[test]
fn builtin_reducers_compute_count_max_min() {
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let mut job = JobBuilder::new("builtins");
    let pairs: Vec<(u64, u64)> = (0..100u64).map(|i| (i % 5, i)).collect();
    let loader = job.add_loader("pairs", typed::pairs_loader(pairs));
    let fan = job.add_map(
        "fan",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| {
            out.emit_t(0, &k, &v);
            out.emit_t(1, &k, &v);
            out.emit_t(2, &k, &v);
        }),
    );
    let captured = |_ctx: &_, k: u64, acc: u64, out: &mut Emitter| out.output_t(&k, &acc);
    let count = job.add_partial_reduce(
        "count",
        typed::partial_fn::<u64, u64, u64, _, _, _>(|_| 1, |n, _| n + 1, captured),
    );
    let max = job.add_partial_reduce(
        "max",
        typed::partial_fn::<u64, u64, u64, _, _, _>(|v| v, u64::max, captured),
    );
    let min = job.add_partial_reduce(
        "min",
        typed::partial_fn::<u64, u64, u64, _, _, _>(|v| v, u64::min, captured),
    );
    job.connect(loader, fan, Exchange::Local);
    job.connect(fan, count, Exchange::Hash);
    job.connect(fan, max, Exchange::Hash);
    job.connect(fan, min, Exchange::Hash);
    for f in [count, max, min] {
        job.capture_output(f);
    }
    let result = cluster.run(job.build().unwrap()).unwrap();
    let counts: std::collections::BTreeMap<u64, u64> =
        result.typed_output::<u64, u64>(count).into_iter().collect();
    let maxs: std::collections::BTreeMap<u64, u64> =
        result.typed_output::<u64, u64>(max).into_iter().collect();
    let mins: std::collections::BTreeMap<u64, u64> =
        result.typed_output::<u64, u64>(min).into_iter().collect();
    for k in 0..5u64 {
        assert_eq!(counts[&k], 20);
        assert_eq!(maxs[&k], 95 + k);
        assert_eq!(mins[&k], k);
    }
}

#[test]
fn concurrent_jobs_on_one_cluster() {
    // `Cluster::run` takes &self: two jobs may run simultaneously from
    // different threads (each gets its own fabric; disks/DFS/KV are
    // shared). Results must be independent and correct.
    let cluster = std::sync::Arc::new(Cluster::new(ClusterConfig::local(3, 2)));
    let handles: Vec<_> = (0..4u64)
        .map(|job_id| {
            let cluster = std::sync::Arc::clone(&cluster);
            std::thread::spawn(move || {
                let mut job = JobBuilder::new(format!("concurrent-{job_id}"));
                let loader = job.add_loader(
                    "pairs",
                    typed::pairs_loader((0..500u64).map(|i| (i, job_id)).collect::<Vec<_>>()),
                );
                let tag = job.add_map(
                    "tag",
                    typed::map_fn(move |_k: u64, v: u64, out: &mut Emitter| {
                        out.emit_t(0, &0u64, &v)
                    }),
                );
                let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
                job.connect(loader, tag, Exchange::Local);
                job.connect(tag, sum, Exchange::Hash);
                job.capture_output(sum);
                let result = cluster.run(job.build().unwrap()).unwrap();
                let total: u64 = result
                    .typed_output::<u64, u64>(sum)
                    .iter()
                    .map(|(_, v)| v)
                    .sum();
                assert_eq!(total, 500 * job_id);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
