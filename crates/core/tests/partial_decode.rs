//! Pins the partial reduce's decode budget: a key is decoded once per
//! distinct key, for `finish`, and never while folding — the stripe's
//! table holds keys as bytes and its `init` / `fold` closures never see
//! one.

use hamr_codec::{Codec, CodecError};
use hamr_core::{typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder};
use std::sync::atomic::{AtomicU64, Ordering};

/// Decodes of [`CountedKey`]; only this file's one test makes any.
static DECODES: AtomicU64 = AtomicU64::new(0);

/// A `u64` key whose every decode is counted.
struct CountedKey(u64);

impl Codec for CountedKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        DECODES.fetch_add(1, Ordering::Relaxed);
        u64::decode(input).map(CountedKey)
    }
}

#[test]
fn a_partial_reduce_decodes_each_distinct_key_once() {
    const N: u64 = 5_000;
    const D: u64 = 37;
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let mut job = JobBuilder::new("partial-decode");
    let records: Vec<(CountedKey, u64)> = (0..N).map(|i| (CountedKey(i % D), i)).collect();
    let loader = job.add_loader("records", typed::pairs_loader(records));
    let sum = job.add_partial_reduce(
        "sum",
        typed::partial_fn::<CountedKey, u64, u64, _, _, _>(
            |v| v,
            |acc, v| acc + v,
            |_ctx, k, acc, out: &mut Emitter| out.output_t(&k.0, &acc),
        ),
    );
    job.connect(loader, sum, Exchange::Hash);
    job.capture_output(sum);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let mut sums = result.typed_output::<u64, u64>(sum);
    sums.sort();
    let want: Vec<(u64, u64)> = (0..D)
        .map(|k| (k, (0..N).filter(|i| i % D == k).sum()))
        .collect();
    assert_eq!(sums, want);
    assert_eq!(DECODES.load(Ordering::Relaxed), D);
}
