//! Workload-level acceptance for partition stability across a job
//! chain: PageRank's update jobs ship no edge once iteration 0 has
//! built each page's in-link list at its home, cache on/off checksum
//! identity, and fingerprint invalidation when the cached input is
//! mutated between sessions.

use hamr_core::JobRow;
use hamr_workloads::kcliques::KCliques;
use hamr_workloads::kmeans::KMeans;
use hamr_workloads::pagerank::PageRank;
use hamr_workloads::{BenchOutput, Benchmark, Env};

/// A link-dense PageRank, large enough that iteration 0's edges
/// outweigh a job's control messages a hundredfold (density and size
/// are properties of the input, not of the cache).
fn dense_pagerank(resident: bool) -> PageRank {
    PageRank {
        pages: 40_000,
        max_out_links: 64,
        iterations: 4,
        resident,
    }
}

/// One column of a PageRank chain's iteration `i`, summed over its
/// jobs' rows: the setup job alone, then a rank-ship and an update job
/// per iteration.
fn iteration(out: &BenchOutput, i: usize, col: impl Fn(&JobRow) -> Option<u64>) -> u64 {
    let rows = if i == 0 {
        &out.jobs[..1]
    } else {
        &out.jobs[2 * i - 1..2 * i + 1]
    };
    rows.iter().filter_map(col).sum()
}

/// Iteration 0 ships every edge once, keyed by its destination, and
/// leaves each page's in-link list at the page's home. After it, no
/// update job ships an edge, with the resident cache on (update 1
/// fills it, later updates are served) or off (every update re-scans
/// its node's KV store): each ships under 1 % of iteration 0's bytes,
/// its convergence tail. While update 1 shuffled the reverse adjacency
/// it shipped about 106 % of iteration 0. The served iterations must
/// still hit the cache and save bytes, and the checksums must be
/// identical.
#[test]
fn pagerank_update_jobs_ship_under_a_hundredth_of_iteration_0() {
    let env = Env::test(4, 2);
    dense_pagerank(true).seed(&env).expect("seed");
    let mark = env.hamr.resident().stats();
    let on = dense_pagerank(true).run_hamr(&env).expect("cache-on run");
    let saved = env.hamr.resident().stats().bytes_saved - mark.bytes_saved;
    let off = dense_pagerank(false).run_hamr(&env).expect("cache-off run");
    assert_eq!(
        (on.checksum, on.records),
        (off.checksum, off.records),
        "resident serving changed the answer"
    );
    assert_eq!((on.iters.len(), on.jobs.len()), (4, 7));
    let hits = |out, i| iteration(out, i, |r| r.cache_hits);
    assert_eq!(hits(&on, 1), 0, "iteration 1 fills");
    assert!(saved > 0, "the served iterations save bytes");
    for i in 2..4 {
        assert!(hits(&on, i) >= 1, "iteration {i} must serve");
        assert_eq!(hits(&off, i), 0, "the ablation never serves");
    }
    for (side, out) in [("cache on", &on), ("cache off", &off)] {
        let iter0 = out.jobs[0].shuffled_bytes;
        let updates = out
            .jobs
            .iter()
            .filter(|j| j.job.starts_with("pagerank-update"));
        for job in updates {
            assert!(
                job.shuffled_bytes * 100 < iter0,
                "{side}: {} shipped {} B against iteration 0's {iter0} B",
                job.job,
                job.shuffled_bytes
            );
        }
    }
}

/// Rerunning a served workload after the input file changes must
/// bypass the stale frames (fingerprint mismatch), recompute, and
/// produce the same answer a never-cached environment produces on the
/// mutated input.
#[test]
fn kmeans_input_mutation_invalidates_resident_lines() {
    let env = Env::test(3, 2);
    let bench = KMeans::default();
    bench.seed(&env).expect("seed");
    let first = bench.run_hamr(&env).expect("first run");
    let filled = env.hamr.resident().stats();
    assert!(filled.misses >= 1, "first run fills km/lines");

    // Serve path: same input, same session — pinned lines replayed.
    let replay = bench.run_hamr(&env).expect("replayed run");
    let served = env.hamr.resident().stats();
    assert_eq!(served.hits - filled.hits, 1, "rerun serves km/lines");
    assert_eq!(first.checksum, replay.checksum);

    // Mutate the cached input: rewrite it with one extra movie line.
    let path = "kmeans/input.txt";
    let mut lines: Vec<String> = String::from_utf8(env.dfs.read_all(path).expect("read input"))
        .expect("utf8")
        .lines()
        .map(str::to_owned)
        .collect();
    lines.push("99999:7_5,8_3".to_string());
    env.dfs.delete(path).expect("delete input");
    env.seed_text(path, &lines).expect("reseed");

    let mutated = bench.run_hamr(&env).expect("post-mutation run");
    let after = env.hamr.resident().stats();
    assert_eq!(
        after.hits - served.hits,
        0,
        "changed fingerprint must not serve stale lines"
    );
    assert!(after.misses > served.misses, "post-mutation run recomputes");

    // The recompute matches a cache-cold environment on the same input.
    let cold_env = Env::test(3, 2);
    cold_env.dfs.delete(path).ok();
    cold_env.seed_text(path, &lines).expect("seed cold");
    bench.seed(&cold_env).expect("seed rest");
    let cold = bench.run_hamr(&cold_env).expect("cold run");
    assert_eq!(
        (mutated.checksum, mutated.records),
        (cold.checksum, cold.records),
        "post-mutation result must reflect the new input"
    );
}

/// The namespaced reset gives PageRank a clean slate per run without
/// touching other tenants: KMeans' resident lines survive a PageRank
/// rerun in the same environment and still serve.
#[test]
fn namespaced_reset_preserves_other_tenants() {
    let env = Env::test(3, 2);
    let km = KMeans::default();
    km.seed(&env).expect("seed kmeans");
    km.run_hamr(&env).expect("fill km/lines");
    let pr = PageRank::default();
    pr.seed(&env).expect("seed pagerank");
    pr.run_hamr(&env).expect("pagerank run resets pr/ only");
    let before = env.hamr.resident().stats();
    km.run_hamr(&env).expect("kmeans rerun");
    let after = env.hamr.resident().stats();
    assert_eq!(
        after.hits - before.hits,
        1,
        "km/lines must survive PageRank's pr/ reset and serve"
    );
}

/// K-Cliques resets only its own `kc/` namespace: a PageRank run's
/// `pr/` keys in the same environment survive a K-Cliques run (and its
/// rerun, which still finds its own graph) byte for byte.
#[test]
fn kcliques_leaves_pageranks_keys_alone() {
    let env = Env::test(3, 2);
    let pr_keys = |env: &Env| {
        let mut keys = Vec::new();
        for node in 0..3 {
            env.hamr.kv().shard(node).for_each(|k, v| {
                if k.starts_with(b"pr/") {
                    keys.push((k.to_vec(), v.to_vec()));
                }
            });
        }
        keys.sort();
        keys
    };
    let pr = PageRank::default();
    pr.seed(&env).expect("seed pagerank");
    pr.run_hamr(&env).expect("pagerank");
    let ranked = pr_keys(&env);
    assert!(!ranked.is_empty());
    let kc = KCliques::default();
    kc.seed(&env).expect("seed kcliques");
    let first = kc.run_hamr(&env).expect("kcliques");
    let again = kc.run_hamr(&env).expect("kcliques rerun");
    assert!(first.records > 0);
    assert_eq!(first.checksum, again.checksum);
    assert_eq!(pr_keys(&env), ranked, "K-Cliques must reset kc/ only");
}
