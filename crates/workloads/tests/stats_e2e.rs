//! Workload-level acceptance for the data-plane statistics layer.
//!
//! The skewed HistogramRatings run is the paper's §5.2 pathology: five
//! rating keys, one of them drawing most of the traffic. The statistics
//! must *name* that hot key — the heavy-hitter sketch on the shuffle
//! edge ranks it first — and with 1-in-1 lineage sampling the `hamr
//! explain` rendering must walk a hot-key record from its emit to the
//! reducer at its hash home, as every sample of a healthy run does.
//! HAMR's distinct-key estimate agrees with the exact count the
//! MapReduce baseline takes from its reduce `groups`: on the five-key
//! cardinality exactly, and on a WordCount vocabulary of thousands
//! within 5 %.

use hamr_core::{RuntimeConfig, SkewConfig};
use hamr_trace::stats::render_explain;
use hamr_trace::{read_journal, HopKind, JournalRecord, StatsMode, StatsSnapshot};
use hamr_workloads::gen::movies::{movie_lines, parse_movie_line};
use hamr_workloads::histogram_ratings::HistogramRatings;
use hamr_workloads::{BenchOutput, Benchmark, Env, SimParams};
use std::path::PathBuf;

fn journal_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hamr_stats_e2e_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Read the last stats snapshot the job journaled.
fn load_snapshot(dir: &PathBuf, job: &str) -> StatsSnapshot {
    let read = read_journal(dir).expect("read journal");
    read.records
        .iter()
        .rev()
        .find_map(|r| match r {
            JournalRecord::Stats(s) if s.job == job => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no stats snapshot for {job} in {dir:?}"))
}

/// The skewed generator's hottest rating value, counted exactly from
/// the same lines the benchmark seeds (generators are seed-fixed).
fn hottest_rating(bench: &HistogramRatings, seed: u64) -> (u64, u64, u64) {
    let lines = movie_lines(
        bench.movies,
        bench.users,
        bench.max_ratings_per_movie,
        seed.wrapping_add(2),
    );
    let mut counts = [0u64; 6];
    for line in &lines {
        if let Some((_, ratings)) = parse_movie_line(line) {
            for (_, r) in ratings {
                counts[r as usize] += 1;
            }
        }
    }
    let hot = (1..6).max_by_key(|&r| counts[r]).unwrap() as u64;
    let total: u64 = counts.iter().sum();
    (hot, counts[hot as usize], total)
}

#[test]
fn skewed_histogram_sketch_names_the_hot_key() {
    let dir = journal_dir("skew");
    // Combining stays off so the per-rating record counts reach the
    // emit-side sketches unfolded.
    let runtime = RuntimeConfig {
        skew: SkewConfig::off(),
        stats: StatsMode::Full { sample_one_in: 1 },
        ..Default::default()
    };
    let params = SimParams::test(3, 2);
    let seed = params.seed;
    let env = Env::with_hamr_runtime(params, runtime);
    env.hamr.enable_journal(&dir).expect("enable journal");
    let bench = HistogramRatings {
        movies: 2,
        users: 400,
        max_ratings_per_movie: 2_000,
    };
    bench.seed(&env).expect("seed");
    bench.run_hamr(&env).expect("hamr run");
    drop(env);

    let snap = load_snapshot(&dir, "histogram-ratings");
    let (hot, hot_count, total) = hottest_rating(&bench, seed);
    assert!(
        hot_count * 4 > total,
        "generator lost its skew: {hot_count}/{total}"
    );
    // Ratings are u64 keys < 128: a single LEB128 varint byte on the
    // wire.
    let hot_key = vec![hot as u8];

    // The heavy-hitter sketch on the busiest shuffle edge must rank
    // the generator's hottest rating first.
    let edge = snap
        .edges
        .iter()
        .max_by_key(|e| e.records)
        .expect("no shuffle edge with traffic");
    assert_eq!(edge.distinct, 5, "five rating keys: {edge:?}");
    let top = edge.top.first().expect("empty top-K");
    assert_eq!(
        top.key, hot_key,
        "HH sketch top-1 is not the generator's hot rating {hot}"
    );
    assert_eq!(top.err, 0, "five keys, K=32: no eviction error");
    assert!(
        edge.hot_share > 0.2,
        "the hottest of five keys must carry more than a fifth: {}",
        edge.hot_share
    );

    // 1-in-1 sampling: the hot key's lineage must be on file, and
    // every hop of it must lead to the one node the key hashes to,
    // where a reducer ingests it.
    let home = hamr_codec::partition(&hot_key, 3) as u32;
    let sample = snap
        .find_sample(&[hot_key], None)
        .expect("hot key was not sampled at 1-in-1");
    let shuffled = sample.hops.iter().filter(|h| h.edge == edge.edge);
    for hop in shuffled.clone() {
        assert_eq!(hop.dst, home, "hot key left its hash home: {hop:?}");
    }
    for kind in [HopKind::Emit, HopKind::Reduce] {
        assert!(
            shuffled.clone().any(|h| h.kind == kind),
            "hot key has no {kind:?} hop: {:?}",
            sample.hops
        );
    }
    let rendered = render_explain(&snap.job, sample);
    assert!(
        rendered.contains("emitted via flowlet")
            && rendered.contains("ingested by reduce")
            && rendered.contains(&format!("final reducer: node {home}")),
        "explain misses the path: {rendered}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthy_run_sample_goes_straight_to_reduce() {
    let dir = journal_dir("healthy");
    let runtime = RuntimeConfig {
        skew: SkewConfig::off(),
        stats: StatsMode::Full { sample_one_in: 1 },
        ..Default::default()
    };
    let env = Env::with_hamr_runtime(SimParams::test(3, 2), runtime);
    env.hamr.enable_journal(&dir).expect("enable journal");
    let bench = HistogramRatings {
        movies: 200,
        users: 500,
        max_ratings_per_movie: 20,
    };
    bench.seed(&env).expect("seed");
    bench.run_hamr(&env).expect("hamr run");
    drop(env);

    let snap = load_snapshot(&dir, "histogram-ratings");
    assert!(!snap.samples.is_empty(), "1-in-1 sampling left no samples");
    // Only shuffle keys are sampled, and every one of them must end at
    // a reducer.
    let shuffle_edges: Vec<u32> = snap.edges.iter().map(|e| e.edge).collect();
    for sample in &snap.samples {
        assert!(
            sample.hops.iter().all(|h| shuffle_edges.contains(&h.edge)),
            "a hop off the shuffle: {sample:?}"
        );
        let rendered = render_explain(&snap.job, sample);
        assert!(
            rendered.contains("ingested by reduce"),
            "sample never reached a reducer: {rendered}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sketch accuracy: HAMR's distinct-key estimate lands within 5 % of
/// the exact count mapred derives from its reduce groups (the HLL's
/// 3-sigma band at 2^12
/// registers is 4.9 %) — on the five rating keys, where the band means
/// exactly five, and on a WordCount vocabulary of thousands, where the
/// estimate is a real one.
#[test]
fn both_engines_agree_on_rating_cardinality() {
    use hamr_workloads::wordcount::WordCount;
    let ratings = HistogramRatings {
        movies: 200,
        users: 500,
        max_ratings_per_movie: 20,
    };
    let cases: [(&dyn Benchmark, &str, std::ops::RangeInclusive<u64>); 2] = [
        (&ratings, "histogram-ratings", 5..=5),
        (&WordCount::default(), "wordcount", 1_000..=u64::MAX),
    ];
    for (bench, job, exact_range) in cases {
        let dir = journal_dir(job);
        let env = Env::test(3, 2);
        env.hamr.enable_journal(&dir).expect("enable journal");
        bench.seed(&env).expect("seed");
        let hamr = bench.run_hamr(&env).expect("hamr run");
        let mr = bench.run_mapred(&env).expect("mapred run");
        drop(env);
        // One job on each engine: compare the two rows' key columns.
        let keys = |out: &BenchOutput| match &out.jobs[..] {
            [row] => row.distinct_keys.expect("both engines count keys"),
            rows => panic!("{}: one job per engine, got {rows:?}", bench.name()),
        };
        let exact = keys(&mr);
        assert!(
            exact_range.contains(&exact),
            "{}: mapred counted {exact} reduce groups",
            bench.name()
        );
        let sketch = keys(&hamr);
        assert!(
            sketch.abs_diff(exact) * 20 <= exact,
            "{}: sketch {sketch} is more than 5% off exact {exact}",
            bench.name()
        );
        let even = 1.0 / exact as f64 - 1e-9;
        // HAMR's sketch sees the shuffle after in-node combining: each
        // word about once per drain, thousands of near-equal keys
        // through `STATS_TOP_K` slots, so the floor `count − err` of
        // its top entry may sit under the even share. What SpaceSaving
        // does guarantee, merges included, is that a tracked `count`
        // is no less than the key's true weight and that no untracked
        // key outweighs a tracked one's `count` — so the top `count`
        // is at least the hottest key's records, which are at least
        // `records / exact`. Where the key space fits the sketch
        // nothing is evicted and the floor itself is exact.
        let snap = load_snapshot(&dir, job);
        let edge = snap
            .edges
            .iter()
            .max_by_key(|e| e.records)
            .expect("no shuffle edge with traffic");
        let top = edge.top.first().expect("empty top-K");
        let floor = (top.count - top.err) as f64 / edge.records as f64;
        assert_eq!(
            edge.hot_share,
            floor,
            "{}: the published share is not the busiest shuffle edge's floor: {edge:?}",
            bench.name()
        );
        assert!(
            top.count as f64 / edge.records as f64 >= even,
            "{}: top-1 upper bound {} of {} records is under the even share of {exact} keys",
            bench.name(),
            top.count,
            edge.records
        );
        if exact <= hamr_trace::stats::STATS_TOP_K as u64 {
            assert_eq!(top.err, 0, "{}: {exact} keys fit the sketch", bench.name());
            assert!(
                floor >= even,
                "{}: the hottest of {exact} keys must carry at least its even share (hamr {floor})",
                bench.name()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
