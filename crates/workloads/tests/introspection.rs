//! Workload-level introspection: per-iteration shuffle volume for
//! PageRank read back from its journal, and one `/metrics` scrape
//! covering both engines.

use hamr_trace::{http_get, parse_prometheus, Timeline};
use hamr_workloads::pagerank::PageRank;
use hamr_workloads::wordcount::WordCount;
use hamr_workloads::{Benchmark, Env};
use std::time::Duration;

/// An iterative workload's per-iteration shuffle volume is in its
/// journal: every HAMR job is one span, and the PageRank job chain
/// runs a setup job plus a (rank-ship, update) pair per later
/// iteration. The spans also show where the edges travel: iteration 0
/// ships each one once, to its destination's home, and neither update
/// ships one again — update1 fills the resident cache from its node's
/// KV store, update2 is served pinned frames, and both ship only the
/// convergence tail.
#[test]
fn pagerank_reports_per_iteration_shuffle_deltas() {
    let dir = std::env::temp_dir().join(format!(
        "hamr_introspection_pagerank_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let env = Env::test(2, 2);
    env.hamr.enable_journal(&dir).expect("enable journal");
    // Twice the default pages, so that iteration 0's edges outweigh a
    // job's control messages a hundredfold.
    let pr = PageRank {
        pages: 40_000,
        iterations: 3,
        ..Default::default()
    };
    pr.seed(&env).expect("seed");
    pr.run_hamr(&env).expect("run");
    let timeline = Timeline::load(&dir).expect("load timeline");
    let spans: Vec<_> = timeline
        .jobs
        .iter()
        .filter(|s| s.job.starts_with("pagerank-"))
        .collect();
    let names: Vec<&str> = spans.iter().map(|s| s.job.as_str()).collect();
    assert_eq!(
        names,
        [
            "pagerank-iter0",
            "pagerank-ship1",
            "pagerank-update1",
            "pagerank-ship2",
            "pagerank-update2"
        ],
        "setup, then one (ship, update) pair per later iteration"
    );
    let shuffled: Vec<u64> = spans
        .iter()
        .map(|s| s.row.as_ref().map_or(0, |r| r.shuffled_bytes))
        .collect();
    assert!(shuffled.iter().all(|&b| b > 0), "{names:?}: {shuffled:?}");
    for update in [2, 4] {
        assert!(
            shuffled[update] * 100 < shuffled[0],
            "{} ships no edge: {shuffled:?}",
            names[update]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One scrape, both engines: the MapReduce baseline publishes into the
/// HAMR cluster's registry (see `Env::new`), so `/metrics` carries
/// `engine="hamr"` and `engine="mapred"` series side by side.
#[test]
fn one_scrape_covers_both_engines() {
    let env = Env::test(2, 2);
    let wc = WordCount::default();
    wc.seed(&env).expect("seed");
    let addr = env.hamr.serve_introspection(0).expect("bind");
    wc.run_hamr(&env).expect("hamr run");
    wc.run_mapred(&env).expect("mapred run");
    let (status, body) = http_get(addr, "/metrics", Duration::from_secs(2)).expect("GET");
    assert_eq!(status, 200);
    let samples = parse_prometheus(&body).expect("valid Prometheus text");
    for engine in ["hamr", "mapred"] {
        assert!(
            samples.iter().any(|s| {
                s.name == "hamr_shuffled_bytes_total"
                    && s.label("engine") == Some(engine)
                    && s.value > 0.0
            }),
            "shuffled bytes for engine={engine}: {body}"
        );
        assert!(
            samples.iter().any(|s| {
                s.name == "hamr_net_sent_bytes_total" && s.label("engine") == Some(engine)
            }),
            "net counters for engine={engine}"
        );
    }
    // At least one histogram per engine.
    assert!(samples
        .iter()
        .any(|s| s.name == "hamr_flowlet_task_latency_us_count" && s.value > 0.0));
    assert!(samples
        .iter()
        .any(|s| s.name == "hamr_mr_phase_us_count" && s.value > 0.0));
    env.hamr.stop_introspection();
}

/// The statistics plane publishes only what `hamr top` reads: the
/// per-node key gauges of the shuffle edge. No per-edge or per-job
/// rollup gauge, from either engine.
#[test]
fn only_the_per_node_key_gauges_reach_metrics() {
    let env = Env::test(2, 2);
    let wc = WordCount::default();
    wc.seed(&env).expect("seed");
    let addr = env.hamr.serve_introspection(0).expect("bind");
    wc.run_hamr(&env).expect("hamr run");
    wc.run_mapred(&env).expect("mapred run");
    let (status, body) = http_get(addr, "/metrics", Duration::from_secs(2)).expect("GET");
    env.hamr.stop_introspection();
    assert_eq!(status, 200);
    let samples = parse_prometheus(&body).expect("valid Prometheus text");
    let mut names: Vec<&str> = samples
        .iter()
        .map(|s| s.name.as_str())
        .filter(|n| n.starts_with("hamr_stats_"))
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names,
        [
            "hamr_stats_node_distinct_keys",
            "hamr_stats_node_hot_key_permille"
        ]
    );
}
