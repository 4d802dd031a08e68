//! What a shuffled record costs on the wire: its two length varints,
//! its key and its value — and no key hash. The audit ledger counts
//! the payload bytes of every bin at all four custody points, so on a
//! job whose records have known sizes the ledger's byte column must
//! equal the sum of the entries exactly, and still balance
//! emit == ship == deliver == consume with the default mitigations on.

use hamr_codec::Codec;
use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, RunOptions, SchedMode,
    SkewConfig, Supervision,
};
use hamr_trace::AuditStage;

/// Encoded size of a `u64` key, value or length prefix (a varint).
fn encoded_len(n: u64) -> u64 {
    n.to_bytes().len() as u64
}

#[test]
fn shuffle_edge_bytes_are_lengths_keys_and_values() {
    const KEYS: u64 = 3000;
    let mut config = ClusterConfig::local(2, 2);
    config.runtime.sched = SchedMode::Deterministic { seed: 7 };
    // Pinned, so an ambient HAMR_SKEW cannot change what is measured.
    config.runtime.skew = SkewConfig::default();
    assert!(config.runtime.skew.combine);
    let cluster = Cluster::new(config);

    // Distinct keys, so the combiner folds nothing and every record
    // crosses the Hash edge exactly once; the keys span one-
    // and two-byte encodings, the values one, two and three.
    let pairs: Vec<(u64, u64)> = (0..KEYS).map(|k| (k, k * 7)).collect();
    let wire: u64 = pairs
        .iter()
        .map(|&(k, v)| {
            let (klen, vlen) = (encoded_len(k), encoded_len(v));
            encoded_len(klen) + klen + encoded_len(vlen) + vlen
        })
        .sum();

    let mut job = JobBuilder::new("wire-bytes");
    let loader = job.add_loader("pairs", typed::pairs_loader(pairs.clone()));
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect_combined(loader, sum, Exchange::Hash, typed::sum_combiner());
    job.capture_output(sum);
    let audited = RunOptions {
        supervision: Some(Supervision::default()),
        ..Default::default()
    };
    let result = cluster.run_with(job.build().unwrap(), &audited).unwrap();
    let mut out = result.typed_output::<u64, u64>(sum);
    out.sort();
    assert_eq!(out, pairs);

    let report = cluster.last_audit().expect("supervised runs are audited");
    report.check().expect("custody must balance");
    // The job has one edge; its rows are the shuffle.
    assert!(report.rows.iter().all(|r| r.edge == 0));
    for stage in [
        AuditStage::Emit,
        AuditStage::Ship,
        AuditStage::Deliver,
        AuditStage::Consume,
    ] {
        let total = report.total(stage);
        assert_eq!(total.records, KEYS, "{stage:?}");
        assert_eq!(
            total.bytes,
            wire,
            "{stage:?}: {} B over {KEYS} records; with an 8-byte hash per record it was {}",
            total.bytes,
            wire + 8 * KEYS
        );
    }
}
