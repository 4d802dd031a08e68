//! End-to-end skew-mitigation tests: combiners and hot-key splitting
//! must each preserve engine output exactly while their counters prove
//! the mechanism actually engaged.

use hamr_core::skew::KeySketch;
use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, JobResult, RunOptions, SchedMode,
    SkewConfig, Supervision,
};

/// A cluster with an explicit skew configuration and the deterministic
/// scheduler, so every run of the same job is byte-for-byte repeatable.
fn skew_cluster(nodes: usize, threads: usize, skew: SkewConfig) -> Cluster {
    let mut config = ClusterConfig::local(nodes, threads);
    config.runtime.sched = SchedMode::Deterministic { seed: 7 };
    config.runtime.skew = skew;
    Cluster::new(config)
}

/// Input with one synthetic hot key: key 1 appears `hot` times, keys
/// 2..=cold once each. Values are all 1 so the expected sums are
/// trivially checkable.
fn skewed_pairs(hot: usize, cold: usize) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = (0..hot).map(|_| (1u64, 1u64)).collect();
    v.extend((2..=cold as u64 + 1).map(|k| (k, 1u64)));
    v
}

fn run_sum_job(cluster: &Cluster, pairs: Vec<(u64, u64)>, threshold_note: &str) -> JobResult {
    let mut job = JobBuilder::new(format!("skew-sum-{threshold_note}"));
    let loader = job.add_loader("pairs", typed::pairs_loader(pairs));
    let map = job.add_map(
        "ident",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &v)),
    );
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: Vec<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.iter().sum::<u64>());
        }),
    );
    job.connect(loader, map, Exchange::Local);
    job.connect_combined(map, sum, Exchange::Hash, typed::sum_combiner());
    job.capture_output(sum);
    cluster.run(job.build().unwrap()).unwrap()
}

fn sorted_output(result: &JobResult) -> Vec<(u64, u64)> {
    let mut out = result.typed_output::<u64, u64>(2);
    out.sort();
    out
}

fn expected(hot: usize, cold: usize) -> Vec<(u64, u64)> {
    let mut v = vec![(1u64, hot as u64)];
    v.extend((2..=cold as u64 + 1).map(|k| (k, 1u64)));
    v
}

#[test]
fn hot_key_split_triggers_and_merges_to_unsplit_result() {
    let (hot, cold) = (2000, 50);
    let split_cfg = SkewConfig {
        combine: false,
        split: true,
        split_threshold: 64,
    };
    let split = run_sum_job(
        &skew_cluster(4, 2, split_cfg),
        skewed_pairs(hot, cold),
        "split",
    );
    let baseline = run_sum_job(
        &skew_cluster(4, 2, SkewConfig::off()),
        skewed_pairs(hot, cold),
        "off",
    );
    assert_eq!(sorted_output(&split), expected(hot, cold));
    assert_eq!(sorted_output(&split), sorted_output(&baseline));
    assert!(
        split.metrics.total_splits() > 0,
        "2000 copies of one key past threshold 64 must flag a split"
    );
    // Scattered records are absorbed and folded on arrival even with
    // producer-side combining off.
    assert!(split.metrics.total_combined() > 0);
    assert_eq!(baseline.metrics.total_splits(), 0);
    assert_eq!(baseline.metrics.total_combined(), 0);
}

#[test]
fn combiner_folds_duplicates_and_preserves_output() {
    let (hot, cold) = (1000, 30);
    let combine_cfg = SkewConfig {
        split: false,
        ..SkewConfig::default()
    };
    let combined = run_sum_job(
        &skew_cluster(3, 2, combine_cfg),
        skewed_pairs(hot, cold),
        "combine",
    );
    assert_eq!(sorted_output(&combined), expected(hot, cold));
    assert!(combined.metrics.total_combined() > 0);
    assert_eq!(combined.metrics.total_splits(), 0);
    // Combined records are restored producer-side, so records_out of
    // the map stays comparable with the combiner-free engine.
    let map_out = combined.metrics.flowlets.get(&1).unwrap().records_out;
    assert_eq!(map_out, (hot + cold) as u64);
}

#[test]
fn every_mitigation_combination_produces_identical_output() {
    let (hot, cold) = (800, 25);
    let combos: Vec<(&str, SkewConfig)> = vec![
        ("off", SkewConfig::off()),
        (
            "combine",
            SkewConfig {
                split: false,
                ..SkewConfig::default()
            },
        ),
        (
            "split",
            SkewConfig {
                combine: false,
                split: true,
                split_threshold: 64,
            },
        ),
        (
            "combine,split",
            SkewConfig {
                split_threshold: 64,
                ..SkewConfig::default()
            },
        ),
    ];
    let want = expected(hot, cold);
    for (name, cfg) in combos {
        let result = run_sum_job(&skew_cluster(4, 2, cfg), skewed_pairs(hot, cold), name);
        assert_eq!(
            sorted_output(&result),
            want,
            "mitigation combo '{name}' changed the engine output"
        );
    }
}

#[test]
fn audit_custody_balances_under_full_mitigation() {
    let (hot, cold) = (1500, 40);
    let cluster = skew_cluster(
        4,
        2,
        SkewConfig {
            split_threshold: 64,
            ..SkewConfig::default()
        },
    );
    let mut job = JobBuilder::new("skew-audit");
    let loader = job.add_loader("pairs", typed::pairs_loader(skewed_pairs(hot, cold)));
    let map = job.add_map(
        "ident",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &v)),
    );
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: Vec<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.iter().sum::<u64>());
        }),
    );
    job.connect(loader, map, Exchange::Local);
    job.connect_combined(map, sum, Exchange::Hash, typed::sum_combiner());
    job.capture_output(sum);
    let audited = RunOptions {
        supervision: Some(Supervision::default()),
        ..Default::default()
    };
    let result = cluster.run_with(job.build().unwrap(), &audited).unwrap();
    let report = cluster.last_audit().expect("supervised runs are audited");
    report
        .check()
        .expect("custody must balance through scatter and re-emit");
    // The combiner side-table saw the pre/post-combine pair and never
    // emitted more than it consumed.
    assert!(!report.combines.is_empty());
    for row in &report.combines {
        assert!(row.records_in >= row.records_out);
    }
    let mut out = result.typed_output::<u64, u64>(sum);
    out.sort();
    assert_eq!(out, expected(hot, cold));
}

#[test]
fn single_node_and_single_worker_stay_correct() {
    // Degenerate shapes: nothing to scatter across (1 node) and a lone
    // worker (absorber with one stripe).
    for (nodes, threads) in [(1, 2), (2, 1)] {
        let result = run_sum_job(
            &skew_cluster(
                nodes,
                threads,
                SkewConfig {
                    split_threshold: 16,
                    ..SkewConfig::default()
                },
            ),
            skewed_pairs(300, 10),
            "degenerate",
        );
        assert_eq!(sorted_output(&result), expected(300, 10));
    }
}

/// The splitter's sketch as it was first built: a linear search for the
/// hash, a linear scan for the least `(count, hash)` on eviction, a key
/// flagged once when `count − err` reaches the threshold.
struct LinearScanSketch {
    entries: Vec<(u64, u64, u64)>,
    hot: Vec<u64>,
    threshold: u64,
}

impl LinearScanSketch {
    fn observe(&mut self, hash: u64) -> bool {
        let i = match self.entries.iter().position(|e| e.0 == hash) {
            Some(i) => i,
            None if self.entries.len() < KeySketch::CAP => {
                self.entries.push((hash, 0, 0));
                self.entries.len() - 1
            }
            None => {
                let i = (0..self.entries.len())
                    .min_by_key(|&i| (self.entries[i].1, self.entries[i].0))
                    .expect("CAP > 0");
                let least = self.entries[i].1;
                self.entries[i] = (hash, least, least);
                i
            }
        };
        self.entries[i].1 += 1;
        let (_, count, err) = self.entries[i];
        let flag = count - err >= self.threshold && !self.hot.contains(&hash);
        if flag {
            self.hot.push(hash);
        }
        flag
    }
}

/// A Zipf-like stream over three times as many hashes as the sketch
/// holds: the head crosses the threshold, the tail keeps it evicting.
fn zipf_hashes(len: usize, seed: u64) -> Vec<u64> {
    let space = (3 * KeySketch::CAP) as f64;
    let mut rng = seed;
    (0..len)
        .map(|_| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (rng >> 11) as f64 / (1u64 << 53) as f64;
            let key = (u * u * u * space) as u64;
            hamr_codec::stable_hash(&key.to_le_bytes())
        })
        .collect()
}

#[test]
fn key_sketch_flags_what_the_linear_scan_sketch_flags() {
    let threshold = 24;
    let mut reused = KeySketch::new(threshold);
    for seed in [2015u64, 7] {
        let stream = zipf_hashes(40_000, seed);
        let distinct: std::collections::HashSet<u64> = stream.iter().copied().collect();
        assert!(distinct.len() > KeySketch::CAP, "the stream must evict");
        let mut fresh = KeySketch::new(threshold);
        let mut model = LinearScanSketch {
            entries: Vec::new(),
            hot: Vec::new(),
            threshold: threshold as u64,
        };
        for (at, &h) in stream.iter().enumerate() {
            let want = model.observe(h);
            assert_eq!(fresh.observe(h), want, "seed {seed} position {at}");
            // A cleared sketch is indistinguishable from a new one.
            assert_eq!(reused.observe(h), want, "reused, seed {seed} position {at}");
            assert_eq!(fresh.is_hot(h), model.hot.contains(&h));
        }
        assert!(model.hot.len() > 3, "the head must cross the threshold");
        assert_eq!(fresh.hot_count(), model.hot.len());
        assert_eq!(reused.hot_count(), model.hot.len());
        reused.clear();
        assert_eq!(reused.hot_count(), 0);
    }
}
