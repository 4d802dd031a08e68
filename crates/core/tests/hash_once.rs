//! Pins the data plane's hash budget: a key is hashed once per side.
//! The producer hashes it at emission (routing, hot-key sketch, combine
//! buffer and the statistics fold all share that value); frames do not
//! carry it, so a consumer that shards by key — reduce ingest picking a
//! sub-shard, the shared partial map picking a stripe — hashes it once
//! more per record. Nothing else may: not a `Local → Map` hop, not
//! captured output, not a map probe. A KV store operation hashes its
//! key once.
//!
//! This file deliberately holds a single test: the instrumentation is a
//! process-global counter (`hamr_codec::hash::hash_counter`), so the
//! test needs its own integration-test binary — cargo runs each test
//! file as a separate process, keeping parallel tests in other binaries
//! from polluting the count.

// The counter only exists in debug builds; in release this whole test
// compiles away (and so does the instrumentation).
#![cfg(debug_assertions)]

use hamr_codec::hash::hash_counter;
use hamr_core::{typed, Cluster, ClusterConfig, Emitter, Exchange, FlowletId, JobBuilder};

const LINES: [&str; 4] = [
    "the quick brown fox",
    "the lazy dog",
    "the quick dog",
    "fox",
];
const N_LINES: u64 = 4;
const N_WORDS: u64 = 11;
const N_DISTINCT: usize = 6;

/// `lines -Local-> split -Hash-> <consumer>`, consumer output captured.
fn word_count(
    add_consumer: impl FnOnce(&mut JobBuilder) -> FlowletId,
) -> (hamr_core::JobGraph, FlowletId) {
    let mut job = JobBuilder::new("hash-once");
    let lines = LINES.iter().map(|l| l.to_string()).collect();
    let loader = job.add_loader("lines", typed::vec_loader(lines));
    let map = job.add_map(
        "split",
        typed::map_fn(|_k: u64, line: String, out: &mut Emitter| {
            for w in line.split_whitespace() {
                out.emit_t(0, &w.to_string(), &1u64);
            }
        }),
    );
    let consumer = add_consumer(&mut job);
    job.connect(loader, map, Exchange::Local);
    job.connect(map, consumer, Exchange::Hash);
    job.capture_output(consumer);
    (job.build().unwrap(), consumer)
}

/// `stable_hash` calls one run of `word_count` makes on `cluster`.
fn hashes_of(cluster: &Cluster, add_consumer: impl FnOnce(&mut JobBuilder) -> FlowletId) -> u64 {
    let (graph, consumer) = word_count(add_consumer);
    let before = hash_counter::count();
    let result = cluster.run(graph).unwrap();
    let hashes = hash_counter::count() - before;
    // Sanity: the job actually ran and produced the expected groups.
    assert_eq!(
        result.typed_output::<String, u64>(consumer).len(),
        N_DISTINCT
    );
    hashes
}

#[test]
fn keys_hash_once_per_side() {
    assert_eq!(
        LINES
            .iter()
            .map(|l| l.split_whitespace().count() as u64)
            .sum::<u64>(),
        N_WORDS
    );
    // One hash per loader emission (line) and one per map emission
    // (word). The lines cross a Local edge into a map: no consumer hash.
    let emissions = N_LINES + N_WORDS;

    let add_reduce = |job: &mut JobBuilder| {
        job.add_reduce(
            "count",
            typed::reduce_fn(|k: String, vs: typed::Values<u64>, out: &mut Emitter| {
                // Captured output is not routed, so it is not hashed.
                out.output_t(&k, &vs.sum::<u64>());
            }),
        )
    };
    let add_partial =
        |job: &mut JobBuilder| job.add_partial_reduce("count", typed::sum_reducer::<String>());

    // Reduce ingest sub-shards every word it receives.
    let cluster = Cluster::new(ClusterConfig::local(3, 2));
    assert_eq!(hashes_of(&cluster, add_reduce), emissions + N_WORDS);

    // The shared partial map stripes every word it folds.
    assert_eq!(hashes_of(&cluster, add_partial), emissions + N_WORDS);

    // A KV operation on a node's shard hashes its key once: that hash
    // picks the stripe and tags the probe.
    let shard = cluster.kv().shard(0);
    let before = hash_counter::count();
    shard.put(b"k", b"v");
    shard.put(b"k", b"w");
    assert_eq!(shard.get_with(b"k", |v| v == b"w"), Some(true));
    assert!(shard.get(b"k").is_some());
    assert!(shard.remove(b"k").is_some());
    assert_eq!(hash_counter::count() - before, 5);
}
