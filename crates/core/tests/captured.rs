//! A job's captured output (`JobResult::output`, `typed_output`) holds
//! exactly the pairs its tasks captured: as a multiset, whatever frames
//! they landed in — a task capturing none, one, a full capture frame or
//! several, empty keys and values, two nodes' output merged, and a
//! stream's output epoch by epoch.

use hamr_codec::{Codec, CodecError};
use hamr_core::{
    stream, typed, Captured, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, JobResult,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Pair = (Vec<u8>, Vec<u8>);
type Multiset = BTreeMap<Pair, usize>;

/// Bytes as they are: decoding takes the whole field, so an empty key or
/// value is a value too.
#[derive(Debug)]
struct Raw(Vec<u8>);

impl Codec for Raw {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Raw(std::mem::take(input).to_vec()))
    }
}

fn multiset(pairs: impl IntoIterator<Item = Pair>) -> Multiset {
    let mut counts = Multiset::new();
    for pair in pairs {
        *counts.entry(pair).or_default() += 1;
    }
    counts
}

/// `iter()`, `len()` and `typed_output` of flowlet `f` against `want`.
fn check(result: &JobResult, f: usize, want: &Multiset) -> Result<(), String> {
    let captured: &Captured = result.output(f);
    prop_assert_eq!(captured.len(), want.values().sum::<usize>());
    prop_assert_eq!(captured.is_empty(), want.is_empty());
    let read = captured.iter().map(|(k, v)| (k.to_vec(), v.to_vec()));
    prop_assert_eq!(&multiset(read), want);
    let typed = result.typed_output::<Raw, Raw>(f);
    prop_assert_eq!(&multiset(typed.into_iter().map(|(k, v)| (k.0, v.0))), want);
    Ok(())
}

fn cluster(nodes: usize, bin_capacity: usize) -> Cluster {
    let mut config = ClusterConfig::local(nodes, 1);
    config.runtime.bin_capacity = bin_capacity;
    Cluster::new(config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Each of two nodes runs one loader task that captures 0, 1,
    /// `bin_capacity` or 3 × `bin_capacity` + 1 pairs drawn from a pool
    /// where empty keys and values are common.
    #[test]
    fn captured_output_is_the_multiset_of_captured_pairs(
        cap in 1usize..9,
        shapes in prop::collection::vec(0usize..4, 2..3),
        pool in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..3), prop::collection::vec(any::<u8>(), 0..3)),
            1..12,
        ),
    ) {
        // Node n's task captures its shape's count of pairs, from pool
        // slot 5n on.
        let lists: Vec<Vec<Pair>> = (0..2)
            .map(|n| {
                let count = [0, 1, cap, 3 * cap + 1][shapes[n]];
                (0..count).map(|i| pool[(i + 5 * n) % pool.len()].clone()).collect()
            })
            .collect();
        let want = multiset(lists.concat());
        let mut job = JobBuilder::new("captured");
        let loader = job.add_loader(
            "pairs",
            typed::gen_loader(
                |_| 1,
                move |ctx, _, out: &mut Emitter| {
                    for (k, v) in &lists[ctx.node] {
                        out.output(k, v);
                    }
                },
            ),
        );
        job.capture_output(loader);
        let result = cluster(2, cap).run(job.build().unwrap()).unwrap();
        check(&result, loader, &want)?;
    }

    /// A stream's output, epoch by epoch: the source captures its raw
    /// pairs, one task per epoch, and a windowed count captures each
    /// `(epoch, key)` window. A window may close in more than one flush
    /// (a node's marker can pass another node's records), so its records
    /// are checked as sums per key; every epoch's keys are its own.
    #[test]
    fn a_streams_output_holds_each_epochs_windows(
        cap in 1usize..6,
        epochs in 0u64..4,
        per_epoch in 0u64..9,
    ) {
        let mut job = JobBuilder::new("captured-stream");
        let src = job.add_stream(
            "src",
            stream::bounded_stream(epochs, move |_ctx, epoch, out: &mut Emitter| {
                for i in 0..per_epoch {
                    out.emit_t(0, &(epoch, i % 3), &1u64);
                    out.output(&[epoch as u8], &[]);
                }
            }),
        );
        let win = job.add_partial_reduce(
            "window",
            typed::partial_fn::<(u64, u64), u64, u64, _, _, _>(
                |v| v,
                |acc, v| acc + v,
                |_ctx, k, acc, out: &mut Emitter| out.output_t(&k, &acc),
            ),
        );
        job.connect(src, win, Exchange::Hash);
        job.capture_output(src);
        job.capture_output(win);
        let result = cluster(2, cap).run(job.build().unwrap()).unwrap();
        let raw = (0..epochs).flat_map(|e| (0..2 * per_epoch).map(move |_| (vec![e as u8], vec![])));
        check(&result, src, &multiset(raw))?;
        let mut sums = BTreeMap::new();
        for ((e, k), n) in result.typed_output::<(u64, u64), u64>(win) {
            *sums.entry((e, k)).or_insert(0) += n;
        }
        let want: BTreeMap<(u64, u64), u64> = (0..epochs)
            .flat_map(|e| (0..per_epoch.min(3)).map(move |k| (e, k)))
            .map(|(e, k)| ((e, k), 2 * (0..per_epoch).filter(|i| i % 3 == k).count() as u64))
            .collect();
        prop_assert_eq!(sums, want);
        let windows = result.output(win);
        let typed = result.typed_output::<Raw, Raw>(win);
        prop_assert_eq!(typed.len(), windows.len());
        let read = windows.iter().map(|(k, v)| (k.to_vec(), v.to_vec()));
        prop_assert_eq!(multiset(read), multiset(typed.into_iter().map(|(k, v)| (k.0, v.0))));
    }
}
