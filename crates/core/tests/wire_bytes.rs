//! What a shuffled record costs on the wire: its two length varints,
//! its key and its value — and no key hash. The audit ledger counts
//! the payload bytes of every bin at all four custody points, so on a
//! job whose records have known sizes the ledger's byte column must
//! equal the sum of the entries exactly, and still balance
//! emit == ship == deliver == consume with the default mitigations on.
//! A link carries less: a bin bound for another node crosses it
//! Huffman-coded, and the link is charged for the coded bytes.

use hamr_codec::{huffman, partition, stable_hash, Codec, FrameBuilder};
use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, RunOptions, SchedMode,
    SkewConfig, Supervision,
};
use hamr_simnet::NetConfig;
use hamr_trace::AuditStage;
use std::time::Duration;

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

/// Two nodes over a modeled link, the combiner off so that a bin is
/// exactly the records a node emitted for one destination, in order,
/// `CAP` at a time. Rebuilding those bins here and packing them gives
/// what the link must have been charged: `shuffled_bytes` is Σ (packed
/// length + 16) over the bins that left their node, plus 24 bytes per
/// control message (an ack per remote bin, one `EdgeComplete` each
/// way) — and that is less than the raw bytes the ledger counts.
#[test]
fn a_link_is_charged_for_remote_bins_coded() {
    const NODES: usize = 2;
    const CAP: usize = 256;
    let mut config = ClusterConfig::local(NODES, 1);
    config.net = NetConfig::modeled(Duration::from_micros(50), 64 << 20);
    config.runtime.sched = SchedMode::Deterministic { seed: 7 };
    config.runtime.skew = SkewConfig::off();
    config.runtime.bin_capacity = CAP;
    let cluster = Cluster::new(config);

    // Distinct word-count records: `w<n>` keys, a count of one.
    let pairs: Vec<(String, u64)> = (0..4000u64)
        .map(|w| (format!("w{}", w * 7919 % 1_000_003), 1))
        .collect();
    let mut job = JobBuilder::new("coded-wire");
    let loader = job.add_loader("words", typed::pairs_loader(pairs.clone()));
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: String, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect(loader, sum, Exchange::Hash);
    job.capture_output(sum);
    let audited = RunOptions {
        supervision: Some(Supervision::default()),
        ..Default::default()
    };
    let result = cluster.run_with(job.build().unwrap(), &audited).unwrap();
    let mut out = result.typed_output::<String, u64>(sum);
    out.sort();
    let mut want = pairs.clone();
    want.sort();
    assert_eq!(out, want);

    // The pairs loader deals record i to node i % NODES.
    let (mut raw, mut remote_raw, mut remote_coded, mut remote_bins) = (0, 0, 0, 0);
    for src in 0..NODES {
        for dst in 0..NODES {
            let entries: Vec<(Vec<u8>, Vec<u8>)> = pairs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % NODES == src)
                .map(|(_, (k, v))| (k.to_bytes().to_vec(), v.to_bytes().to_vec()))
                .filter(|(k, _)| partition(k, NODES) == dst)
                .collect();
            for chunk in entries.chunks(CAP) {
                let mut b = FrameBuilder::new();
                for (k, v) in chunk {
                    b.push(stable_hash(k), k, v);
                }
                let frame = b.freeze();
                raw += frame.payload_bytes() as u64;
                if src != dst {
                    remote_raw += frame.payload_bytes() as u64;
                    remote_coded += huffman::pack(frame.data()).len() as u64 + 16;
                    remote_bins += 1;
                }
            }
        }
    }
    assert!(remote_bins > 4, "{remote_bins} remote bins");
    let control = remote_bins + (NODES * (NODES - 1)) as u64;
    assert_eq!(result.metrics.shuffled_messages, remote_bins + control);
    assert_eq!(result.metrics.shuffled_bytes, remote_coded + 24 * control);
    assert!(
        remote_coded < remote_raw,
        "{remote_coded} B coded, {remote_raw} B raw"
    );

    let report = cluster.last_audit().expect("supervised runs are audited");
    report.check().expect("custody must balance");
    for stage in [AuditStage::Ship, AuditStage::Deliver] {
        assert_eq!(report.total(stage).bytes, raw, "{stage:?} counts raw bytes");
    }
}

/// Completion costs a control message per sender and receiver an edge
/// can have: on a `Hash` edge an `EdgeComplete` goes from every node to
/// every node, on a `Local` edge only from a node to itself, since its
/// records never leave their node. With no records there is nothing
/// else to send, so the fabric carries exactly the `Hash` edge's
/// completions — nodes × (nodes − 1) messages of 24 bytes — and each
/// `Local` edge adds none where a broadcast would add nodes × (nodes − 1).
#[test]
fn a_local_edge_completes_without_crossing_the_fabric() {
    const NODES: usize = 3;
    let mut config = ClusterConfig::local(NODES, 1);
    config.runtime.sched = SchedMode::Deterministic { seed: 7 };
    let cluster = Cluster::new(config);
    let mut job = JobBuilder::new("local-complete");
    let loader = job.add_loader("none", typed::pairs_loader(Vec::<(u64, u64)>::new()));
    let pass = || {
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| {
            out.emit_t(0, &k, &v);
        })
    };
    let a = job.add_map("a", pass());
    let b = job.add_map("b", pass());
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    job.connect(loader, a, Exchange::Local);
    job.connect(a, b, Exchange::Local);
    job.connect(b, sum, Exchange::Hash);
    job.capture_output(sum);
    let result = cluster.run(job.build().unwrap()).unwrap();
    assert!(result.typed_output::<u64, u64>(sum).is_empty());

    let hash_complete = (NODES * (NODES - 1)) as u64;
    assert_eq!(
        result.metrics.shuffled_messages,
        hash_complete,
        "two Local edges would add {} if they signalled every node",
        2 * hash_complete
    );
    assert_eq!(result.metrics.shuffled_bytes, 24 * hash_complete);
}
