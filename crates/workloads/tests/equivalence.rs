//! Cross-engine equivalence: for every benchmark, HAMR and the
//! MapReduce baseline must compute the *same answer* on the same
//! input. This is the correctness backbone of the whole evaluation —
//! speedups are meaningless if the engines disagree.

use hamr_core::{RunOptions, Supervision, WatchdogConfig};
use hamr_mapred::MrRunOptions;
use hamr_workloads::{all_benchmarks, BenchOutput, Benchmark, Env, SimParams};

/// Every equivalence run doubles as a self-verification run: both
/// engines execute under the audit ledger (HAMR additionally under the
/// watchdog), and a clean workload must balance its custody ledger and
/// produce zero watchdog events.
fn audited(env: &Env) {
    env.hamr.set_run_options(RunOptions {
        supervision: Some(Supervision {
            // Pinned config so an ambient HAMR_WATCHDOG=off cannot
            // hollow out the assertion; no doctor dumps from tests.
            watchdog: WatchdogConfig::default(),
            doctor_dir: None,
        }),
        ..Default::default()
    });
    env.mr.set_run_options(MrRunOptions {
        audit: true,
        ..Default::default()
    });
}

fn assert_hamr_clean(env: &Env, name: &str) {
    let hamr_report = env.hamr.last_audit().expect("hamr audit ran");
    hamr_report
        .check()
        .unwrap_or_else(|v| panic!("{name}: hamr bin custody violated: {v:?}"));
    let events = env.hamr.watchdog_events();
    assert!(
        events.is_empty(),
        "{name}: clean workload raised watchdog events: {events:?}"
    );
}

fn assert_clean(env: &Env, name: &str) {
    assert_hamr_clean(env, name);
    let mr_report = env.mr.last_audit().expect("mapred audit ran");
    mr_report
        .check()
        .unwrap_or_else(|v| panic!("{name}: mapred shuffle custody violated: {v:?}"));
}

fn check(bench: &dyn Benchmark) {
    let env = Env::test(3, 2);
    bench.seed(&env).expect("seed");
    audited(&env);
    let hamr = bench.run_hamr(&env).expect("hamr run");
    let mr = bench.run_mapred(&env).expect("mapred run");
    assert_clean(&env, bench.name());
    assert!(
        hamr.records > 0,
        "{}: HAMR produced no output",
        bench.name()
    );
    assert_eq!(
        hamr.records,
        mr.records,
        "{}: record counts differ (hamr {} vs mapred {})",
        bench.name(),
        hamr.records,
        mr.records
    );
    assert_eq!(
        hamr.checksum,
        mr.checksum,
        "{}: checksums differ",
        bench.name()
    );
}

#[test]
fn wordcount_engines_agree() {
    check(&hamr_workloads::wordcount::WordCount::default());
}

#[test]
fn histogram_movies_engines_agree() {
    check(&hamr_workloads::histogram_movies::HistogramMovies::default());
}

#[test]
fn histogram_ratings_engines_agree() {
    check(&hamr_workloads::histogram_ratings::HistogramRatings::default());
}

#[test]
fn naive_bayes_engines_agree() {
    check(&hamr_workloads::naive_bayes::NaiveBayes::default());
}

#[test]
fn kmeans_engines_agree() {
    check(&hamr_workloads::kmeans::KMeans::default());
}

#[test]
fn classification_engines_agree() {
    check(&hamr_workloads::classification::Classification::default());
}

#[test]
fn pagerank_engines_agree() {
    check(&hamr_workloads::pagerank::PageRank::default());
}

#[test]
fn kcliques_engines_agree() {
    check(&hamr_workloads::kcliques::KCliques::default());
}

// ---------------------------------------------------------------
// Skewed inputs (see `hamr_workloads::skewed_variants` for why the
// parameters are what they are): the engines must still agree exactly
// — the frame data plane's hash routing and in-frame sub-sharding get
// no "balanced input" favors.
// ---------------------------------------------------------------

fn check_skewed(name: &str) {
    let bench = hamr_workloads::skewed_variants()
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| panic!("no skewed variant named {name}"));
    check(bench.as_ref());
}

#[test]
fn wordcount_engines_agree_skewed() {
    check_skewed("WordCount");
}

#[test]
fn histogram_movies_engines_agree_skewed() {
    check_skewed("HistogramMovies");
}

#[test]
fn histogram_ratings_engines_agree_skewed() {
    check_skewed("HistogramRatings");
}

#[test]
fn naive_bayes_engines_agree_skewed() {
    check_skewed("NaiveBayes");
}

#[test]
fn kmeans_engines_agree_skewed() {
    check_skewed("K-Means");
}

#[test]
fn classification_engines_agree_skewed() {
    check_skewed("Classification");
}

#[test]
fn pagerank_engines_agree_skewed() {
    check_skewed("PageRank");
}

#[test]
fn kcliques_engines_agree_skewed() {
    check_skewed("KCliques");
}

// ---------------------------------------------------------------
// Skew-mitigation ablation: the combiner, on or off, must leave the
// answer untouched on every skewed workload, balance the custody
// ledger and keep the watchdog silent.
// ---------------------------------------------------------------

fn mitigation_combos() -> [(&'static str, hamr_core::SkewConfig); 2] {
    use hamr_core::SkewConfig;
    [
        ("off", SkewConfig::off()),
        ("combine", SkewConfig::default()),
    ]
}

#[test]
fn skewed_workloads_agree_with_mapred_under_every_mitigation() {
    use hamr_core::RuntimeConfig;
    for bench in hamr_workloads::skewed_variants() {
        // One mapred reference per workload; the baseline engine never
        // sees the skew config.
        let base_env = Env::test(3, 2);
        bench.seed(&base_env).expect("seed");
        let mr = bench.run_mapred(&base_env).expect("mapred run");
        for (combo, skew) in mitigation_combos() {
            let runtime = RuntimeConfig {
                skew,
                ..Default::default()
            };
            let env = Env::with_hamr_runtime(SimParams::test(3, 2), runtime);
            bench.seed(&env).expect("seed");
            audited(&env);
            let hamr = bench.run_hamr(&env).expect("hamr run");
            assert_hamr_clean(&env, &format!("{} [{combo}]", bench.name()));
            assert_eq!(
                (hamr.checksum, hamr.records),
                (mr.checksum, mr.records),
                "{}: mitigation combo '{combo}' disagrees with mapred",
                bench.name()
            );
        }
    }
}

// ---------------------------------------------------------------
// Chain mode (partition residency): the session chain must give the
// same answer with the resident cache on, off, and as the mapred
// reference — and the custody ledger must balance even when delivery
// is a local resident hit instead of a fabric ship.
// ---------------------------------------------------------------

#[test]
fn pagerank_chain_cache_on_off_and_mapred_agree() {
    use hamr_workloads::pagerank::PageRank;
    let env = Env::test(3, 2);
    let on = PageRank::default();
    on.seed(&env).expect("seed");
    audited(&env);
    let served = on.run_hamr(&env).expect("cache-on run");
    // The last chained job was a served update: emit==ship==deliver==
    // consume must still balance when delivery is a resident hit.
    env.hamr
        .last_audit()
        .expect("audit ran")
        .check()
        .unwrap_or_else(|v| panic!("served chain custody violated: {v:?}"));
    let hits: u64 = served.jobs.iter().filter_map(|j| j.cache_hits).sum();
    assert!(hits >= 2, "iterations >=2 must serve (hits={hits})");

    let off = PageRank {
        resident: false,
        ..Default::default()
    };
    let recomputed = off.run_hamr(&env).expect("cache-off run");
    let mr = on.run_mapred(&env).expect("mapred run");
    assert_eq!(
        (served.checksum, served.records),
        (recomputed.checksum, recomputed.records),
        "cache on/off disagree"
    );
    assert_eq!(
        (served.checksum, served.records),
        (mr.checksum, mr.records),
        "chain mode disagrees with mapred"
    );
    // The ablation really measures something: the cache-off chain
    // pays the reverse-adjacency shuffle every iteration.
    let shuffled = |out: &BenchOutput| out.jobs.iter().map(|j| j.shuffled_bytes).sum::<u64>();
    assert!(shuffled(&served) < shuffled(&recomputed));
}

/// M3R-style de-duplicated input loading across *separate* jobs in
/// one session: KMeans and NaiveBayes rerun out of the resident line
/// cache with identical results.
#[test]
fn kmeans_and_naive_bayes_serve_lines_on_rerun() {
    use hamr_workloads::kmeans::KMeans;
    use hamr_workloads::naive_bayes::NaiveBayes;
    let env = Env::test(3, 2);
    let km = KMeans::default();
    km.seed(&env).expect("seed kmeans");
    let first = km.run_hamr(&env).expect("kmeans fill");
    let mark = env.hamr.resident().stats();
    let replay = km.run_hamr(&env).expect("kmeans rerun");
    assert_eq!(
        env.hamr.resident().stats().hits - mark.hits,
        1,
        "km/lines served"
    );
    assert_eq!(
        (first.checksum, first.records),
        (replay.checksum, replay.records)
    );

    let nb = NaiveBayes::default();
    nb.seed(&env).expect("seed nb");
    let first = nb.run_hamr(&env).expect("nb fill");
    let mark = env.hamr.resident().stats();
    let replay = nb.run_hamr(&env).expect("nb rerun");
    assert_eq!(
        env.hamr.resident().stats().hits - mark.hits,
        1,
        "nb/lines served"
    );
    assert_eq!(
        (first.checksum, first.records),
        (replay.checksum, replay.records)
    );
}

#[test]
fn all_benchmarks_have_distinct_inputs() {
    // Seeding everything into one environment must not clash.
    let env = Env::test(2, 1);
    for bench in all_benchmarks() {
        bench
            .seed(&env)
            .unwrap_or_else(|_| panic!("{}", bench.name()));
    }
    assert!(env.dfs.list("").len() >= 8);
}

#[test]
fn combiner_variants_agree_with_plain_runs() {
    use hamr_workloads::histogram_ratings::HistogramRatings;
    let env = Env::test(3, 2);
    let bench = HistogramRatings::default();
    bench.seed(&env).unwrap();
    let plain = bench.run_hamr_with(&env, false).unwrap();
    let combined = bench.run_hamr_with(&env, true).unwrap();
    assert_eq!(plain.checksum, combined.checksum);
    let mr_plain = bench.run_mapred_with(&env, false).unwrap();
    let mr_comb = bench.run_mapred_with(&env, true).unwrap();
    assert_eq!(mr_plain.checksum, mr_comb.checksum);
    assert_eq!(plain.checksum, mr_plain.checksum);
}

#[test]
fn kmeans_locality_and_shipdata_variants_agree() {
    use hamr_workloads::kmeans::KMeans;
    let env = Env::test(3, 2);
    let bench = KMeans::default();
    bench.seed(&env).unwrap();
    let reference = bench.run_hamr(&env).unwrap();
    let shipping = bench.run_hamr_ship_data(&env).unwrap();
    assert_eq!(reference.checksum, shipping.checksum);
    assert_eq!(reference.records, shipping.records);
}

#[test]
fn wordcount_partial_and_full_reduce_agree() {
    use hamr_workloads::wordcount::WordCount;
    let env = Env::test(2, 2);
    let bench = WordCount::default();
    bench.seed(&env).unwrap();
    let partial = bench.run_hamr_with(&env, true).unwrap();
    let full = bench.run_hamr_with(&env, false).unwrap();
    assert_eq!(partial.checksum, full.checksum);
    assert_eq!(partial.records, full.records);
}
