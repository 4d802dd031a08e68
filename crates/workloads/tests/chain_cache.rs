//! Workload-level acceptance for the partition-resident frame cache:
//! the PageRank session chain's iteration-≥2 shuffle collapse, cache
//! on/off checksum identity, and fingerprint invalidation when the
//! cached input is mutated between sessions.

use hamr_core::JobRow;
use hamr_workloads::kcliques::KCliques;
use hamr_workloads::kmeans::KMeans;
use hamr_workloads::pagerank::PageRank;
use hamr_workloads::{BenchOutput, Benchmark, Env};

/// A link-dense PageRank so the invariant reverse adjacency dominates
/// per-iteration traffic (density is a property of the input, not of
/// the cache).
fn dense_pagerank(resident: bool) -> PageRank {
    PageRank {
        pages: 4_000,
        max_out_links: 64,
        iterations: 4,
        resident,
    }
}

/// The tentpole acceptance gate: with the resident cache on,
/// iterations ≥2 ship only the rank frontier — at least 10x fewer
/// records enter a shuffle than in the cache-off chain, which re-scans
/// and re-ships the reverse adjacency every iteration (216 against
/// 5,391). The gate counts records because that is what the cache
/// removes; bytes also depend on the frame format. It was a 10x byte
/// gate while every full-shuffle record carried an 8-byte key hash
/// (4,870 served against 55,546 full); with the hash off the wire the
/// same run ships 4,726 against 25,674, the served side being rank
/// blobs and control messages that never held hashes, so the byte
/// check below is re-derived from that measurement as 4x. Checksums
/// must be identical, and the fill iteration (1) pays the full shuffle
/// in both runs.
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

#[test]
fn pagerank_iterations_ge2_collapse_10x() {
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
    let records = |out, i| iteration(out, i, |r| r.shuffle_records);
    let bytes = |out, i| iteration(out, i, |r| Some(r.shuffled_bytes));
    // Iteration 1 fills: both runs pay the reverse-adjacency shuffle.
    assert_eq!(hits(&on, 1), 0);
    assert!(bytes(&on, 1) * 2 > bytes(&off, 1));
    assert!(saved > 0, "the served iterations save bytes");
    for i in 2..4 {
        assert!(hits(&on, i) >= 1, "iteration {i} must serve");
        // The loader never ran, so nothing was emitted into the
        // update shuffle; only the rank frontier's records remain.
        let (served, full) = (records(&on, i), records(&off, i));
        assert!(
            served * 10 <= full,
            "iteration {i}: served {served} vs full {full} shuffle records — less than 10x"
        );
        let (served, full) = (bytes(&on, i), bytes(&off, i));
        assert!(
            served * 4 <= full,
            "iteration {i}: served {served} vs full {full} bytes — less than 4x"
        );
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
