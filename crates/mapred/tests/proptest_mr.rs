//! Property tests: the MapReduce engine must match a sequential model
//! for arbitrary inputs, with and without a combiner, at any slot
//! count and sort-buffer size.

use hamr_codec::Codec;
use hamr_mapred::{decode_kv, line_map_fn, reduce_fn, JobConf, MrCluster, MrConfig, ReduceOutput};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn model(lines: &[String]) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    for line in lines {
        for w in line.split_whitespace() {
            *m.entry(w.to_string()).or_insert(0) += 1;
        }
    }
    m
}

fn run_wordcount(
    lines: &[String],
    nodes: usize,
    slots: usize,
    sort_buffer: usize,
    combiner: bool,
) -> BTreeMap<String, u64> {
    let disks: Vec<hamr_simdisk::Disk> = (0..nodes)
        .map(|_| hamr_simdisk::Disk::new(Default::default()))
        .collect();
    let dfs = hamr_dfs::Dfs::new(
        disks.clone(),
        hamr_dfs::DfsConfig {
            block_size: 128,
            replication: 1,
        },
    );
    let mut config = MrConfig::local(nodes, slots);
    config.sort_buffer = sort_buffer;
    let cluster = MrCluster::new(config, disks, dfs);
    let mut w = cluster.dfs().create("in.txt").unwrap();
    for line in lines {
        if !line.trim().is_empty() {
            w.write_line(line);
        }
    }
    w.seal().unwrap();
    let reducer = Arc::new(reduce_fn(
        |k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
            out.emit_t(&k, &vs.iter().sum::<u64>());
        },
    ));
    let mut conf = JobConf::new(
        "wc",
        vec!["in.txt".into()],
        "out",
        Arc::new(line_map_fn(|_off, line, out| {
            for w in line.split_whitespace() {
                out.emit_t(&w.to_string(), &1u64);
            }
        })),
        reducer.clone(),
    );
    if combiner {
        conf = conf.with_combiner(reducer);
    }
    cluster.run(&conf).unwrap();
    let mut got = BTreeMap::new();
    for part in cluster.dfs().list("out/") {
        let raw = cluster.dfs().read_all(&part).unwrap();
        let mut input = raw.as_slice();
        while let Some((k, v)) = decode_kv(&mut input).unwrap() {
            got.insert(String::from_bytes(k).unwrap(), u64::from_bytes(v).unwrap());
        }
    }
    got
}

/// Lines of simple lowercase words (keeps the model's tokenization and
/// the engine's in agreement).
fn word_lines() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop::collection::vec("[a-e]{1,3}", 0..8).prop_map(|ws| ws.join(" ")),
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn wordcount_matches_model(
        lines in word_lines(),
        nodes in 1usize..4,
        slots in 1usize..3,
    ) {
        let got = run_wordcount(&lines, nodes, slots, 1 << 20, false);
        prop_assert_eq!(got, model(&lines));
    }

    /// The combiner is an optimization, never a semantic change.
    #[test]
    fn combiner_never_changes_answers(
        lines in word_lines(),
    ) {
        let plain = run_wordcount(&lines, 2, 2, 1 << 20, false);
        let combined = run_wordcount(&lines, 2, 2, 1 << 20, true);
        prop_assert_eq!(plain, combined);
    }

    /// Sort-buffer size (spill count) never changes answers.
    #[test]
    fn sort_buffer_never_changes_answers(
        lines in word_lines(),
        sort_buffer in prop::sample::select(vec![1100usize, 4096, 1 << 20]),
    ) {
        let got = run_wordcount(&lines, 2, 2, sort_buffer, false);
        prop_assert_eq!(got, model(&lines));
    }
}
