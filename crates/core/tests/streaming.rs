//! Streaming jobs: epoch punctuation through the DAG, windowed partial
//! reduces, and the batch/stream unification the paper claims (§1, §2).

use hamr_core::{stream, typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder};

#[test]
fn windowed_partial_reduce_emits_per_epoch() {
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let mut job = JobBuilder::new("stream-sum");
    // Each node emits 10 records of value 1 per epoch, for 3 epochs.
    let src = job.add_stream(
        "src",
        stream::bounded_stream(3, |_ctx, epoch, out: &mut Emitter| {
            for i in 0..10u64 {
                let _ = epoch;
                out.emit_t(0, &(i % 4), &1u64);
            }
        }),
    );
    // Window sum keyed by i%4; finish emits (key, sum) tagged output.
    let win = job.add_partial_reduce(
        "window-sum",
        typed::partial_fn::<u64, u64, u64, _, _, _>(
            |v| v,
            |acc, v| acc + v,
            |_ctx, k, acc, out: &mut Emitter| out.output_t(&k, &acc),
        ),
    );
    job.connect(src, win, Exchange::Hash);
    job.capture_output(win);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let out = result.typed_output::<u64, u64>(win);
    // 2 nodes x 10 records x 3 epochs = 60 units total, distributed
    // over 4 keys, flushed once per epoch (plus a final empty flush).
    let total: u64 = out.iter().map(|(_, v)| v).sum();
    assert_eq!(total, 60);
    // Per-epoch flushing means strictly more output records than a
    // single batch flush would give (4 keys x 3 epochs, spread over
    // whichever nodes own them).
    assert!(out.len() > 4, "expected per-epoch flushes, got {out:?}");
    // Each epoch contributes 20 units; every flushed record must be a
    // whole per-key epoch window (5 per key per epoch per... ) — at
    // minimum, no record can exceed one epoch's total for its key.
    for (k, v) in &out {
        assert!(*k < 4);
        assert!(*v <= 20, "window leak across epochs: key {k} sum {v}");
    }
}

#[test]
fn marker_propagates_through_map_stage() {
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let mut job = JobBuilder::new("stream-map");
    let src = job.add_stream(
        "src",
        stream::bounded_stream(2, |_ctx, _epoch, out: &mut Emitter| {
            for i in 0..5u64 {
                out.emit_t(0, &i, &1u64);
            }
        }),
    );
    let map = job.add_map(
        "double",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &(v * 2))),
    );
    let win = job.add_partial_reduce(
        "sum",
        typed::partial_fn::<u64, u64, u64, _, _, _>(
            |v| v,
            |acc, v| acc + v,
            |_ctx, k, acc, out: &mut Emitter| out.output_t(&k, &acc),
        ),
    );
    job.connect(src, map, Exchange::Local);
    job.connect(map, win, Exchange::Hash);
    job.capture_output(win);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let out = result.typed_output::<u64, u64>(win);
    let total: u64 = out.iter().map(|(_, v)| v).sum();
    // 2 nodes x 5 records x 2 epochs x doubled = 40.
    assert_eq!(total, 40);
}

#[test]
fn stream_with_zero_epochs_completes() {
    let cluster = Cluster::new(ClusterConfig::local(2, 1));
    let mut job = JobBuilder::new("stream-empty");
    let src = job.add_stream(
        "src",
        stream::bounded_stream(0, |_ctx, _epoch, _out: &mut Emitter| {}),
    );
    let win = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    job.connect(src, win, Exchange::Hash);
    job.capture_output(win);
    let result = cluster.run(job.build().unwrap()).unwrap();
    assert!(result.output(win).is_empty());
}

#[test]
fn gen_stream_ends_when_closure_says_so() {
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let mut job = JobBuilder::new("gen-stream");
    let src = job.add_stream(
        "src",
        stream::gen_stream(|ctx, epoch, out: &mut Emitter| {
            out.emit_t(0, &(ctx.node as u64), &epoch);
            epoch < 4 // epochs 0..=4, ends after epoch 4
        }),
    );
    let sink = job.add_partial_reduce(
        "collect",
        typed::partial_fn::<u64, u64, u64, _, _, _>(
            |_v| 1,
            |acc, _v| acc + 1,
            |_ctx, k, acc, out: &mut Emitter| out.output_t(&k, &acc),
        ),
    );
    job.connect(src, sink, Exchange::Hash);
    job.capture_output(sink);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let out = result.typed_output::<u64, u64>(sink);
    // Each node emitted 5 records (epochs 0-4) under its own key.
    let per_node: u64 = out.iter().map(|(_, v)| v).sum();
    assert_eq!(per_node, 10);
}

#[test]
fn batch_and_stream_same_programming_model() {
    // The Lambda-architecture claim: the same partial_fn serves a batch
    // job and a streaming job; the batch total equals the sum of the
    // streaming windows.
    let make_reducer = || {
        typed::partial_fn::<u64, u64, u64, _, _, _>(
            |v| v,
            |acc, v| acc + v,
            |_ctx, k, acc, out: &mut Emitter| out.output_t(&k, &acc),
        )
    };

    let cluster = Cluster::new(ClusterConfig::local(2, 2));

    // Batch: all 60 units at once.
    let mut batch = JobBuilder::new("batch");
    let pairs: Vec<(u64, u64)> = (0..60).map(|i| (i % 4, 1)).collect();
    let loader = batch.add_loader("pairs", typed::pairs_loader(pairs));
    let agg_b = batch.add_partial_reduce("sum", make_reducer());
    batch.connect(loader, agg_b, Exchange::Hash);
    batch.capture_output(agg_b);
    let batch_out = cluster.run(batch.build().unwrap()).unwrap();
    let batch_total: u64 = batch_out
        .typed_output::<u64, u64>(agg_b)
        .iter()
        .map(|(_, v)| v)
        .sum();

    // Stream: same 60 units over 3 epochs on 2 nodes.
    let mut streaming = JobBuilder::new("stream");
    let src = streaming.add_stream(
        "src",
        stream::bounded_stream(3, |_ctx, _epoch, out: &mut Emitter| {
            for i in 0..10u64 {
                out.emit_t(0, &(i % 4), &1u64);
            }
        }),
    );
    let agg_s = streaming.add_partial_reduce("sum", make_reducer());
    streaming.connect(src, agg_s, Exchange::Hash);
    streaming.capture_output(agg_s);
    let stream_out = cluster.run(streaming.build().unwrap()).unwrap();
    let stream_total: u64 = stream_out
        .typed_output::<u64, u64>(agg_s)
        .iter()
        .map(|(_, v)| v)
        .sum();

    assert_eq!(batch_total, 60);
    assert_eq!(stream_total, batch_total);
}
