//! Pins the combine buffer's codec budget: a record's value is decoded
//! once, when it is folded, a held partial is never decoded, and a
//! partial is encoded once, when it drains — so a combining edge encodes
//! exactly the partials its ledger row says left the buffers, not one
//! value per record.

use hamr_codec::{Codec, CodecError};
use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, RunOptions, SkewConfig,
    Supervision,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Encodes and decodes of [`Counted`]; only this file's one test makes
/// any.
static ENCODES: AtomicU64 = AtomicU64::new(0);
static DECODES: AtomicU64 = AtomicU64::new(0);

/// A `u64` count whose every encode and decode is counted. It writes
/// the bytes a `u64` writes.
#[derive(Default)]
struct Counted(u64);

impl Codec for Counted {
    fn encode(&self, buf: &mut Vec<u8>) {
        ENCODES.fetch_add(1, Ordering::Relaxed);
        self.0.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        DECODES.fetch_add(1, Ordering::Relaxed);
        u64::decode(input).map(Counted)
    }
}

#[test]
fn a_combining_edge_encodes_what_it_drains_and_never_decodes_a_held_partial() {
    const N: u64 = 24_000;
    const K: u64 = 97;
    const SPLITS: usize = 6;
    let nodes = 2;
    let mut config = ClusterConfig::local(nodes, 2);
    // Pinned, so an ambient HAMR_SKEW cannot take the combiner away.
    config.runtime.skew = SkewConfig::default();
    let cluster = Cluster::new(config);
    let mut job = JobBuilder::new("combine-codec");
    // Record i goes to key i % K with value i % 5 + 1. The loader emits
    // bytes a `u64` wrote, so no `Counted` is encoded on the way in.
    let loader = job.add_loader(
        "records",
        typed::gen_loader(
            |_ctx| SPLITS,
            move |ctx, split, out: &mut Emitter| {
                let part = ctx.node * SPLITS + split;
                let mine = (0..N).filter(|i| *i as usize % (nodes * SPLITS) == part);
                for i in mine {
                    out.emit(0, &(i % K).to_bytes(), &(i % 5 + 1).to_bytes());
                }
            },
        ),
    );
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: typed::Values<Counted>, out: &mut Emitter| {
            out.output_t(&k, &vs.map(|c| c.0).sum::<u64>());
        }),
    );
    let merge = |a: Counted, b: Counted| Counted(a.0 + b.0);
    job.connect_combined(loader, sum, Exchange::Hash, typed::combine_fn(merge));
    job.capture_output(sum);
    let audited = RunOptions {
        supervision: Some(Supervision {
            doctor_dir: None,
            ..Default::default()
        }),
        ..Default::default()
    };
    let result = cluster.run_with(job.build().unwrap(), &audited).unwrap();

    let mut sums = result.typed_output::<u64, u64>(sum);
    sums.sort();
    let want: Vec<(u64, u64)> = (0..K)
        .map(|k| (k, (0..N).filter(|i| i % K == k).map(|i| i % 5 + 1).sum()))
        .collect();
    assert_eq!(sums, want, "sums as computed sequentially");

    let report = cluster.last_audit().expect("supervised runs are audited");
    report.check().expect("custody balances");
    let row = report.combines[0];
    assert_eq!(row.records_in, N);
    assert!(row.folded > 0, "the edge combined nothing");
    let drained = row.records_out;
    assert_eq!(
        ENCODES.load(Ordering::Relaxed),
        drained,
        "one encode per drained partial"
    );
    // Each record's value is decoded once, by its fold; each drained
    // partial once more, by the reducer that pulls it.
    assert_eq!(
        DECODES.load(Ordering::Relaxed),
        N + drained,
        "a held partial was decoded"
    );
}
