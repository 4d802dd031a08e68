//! PageRank on hand-built graphs, HAMR's chain against the baseline.
//! Each node keeps what an in-edge carries in a column with one slot
//! per page that has out-links, its rank among them, and an in-link
//! list holds its sources' slots. These graphs have what a generated
//! one does not: page ids far apart and past 2^32, a page nothing
//! links to, a page that links nowhere, a duplicate edge, a self-loop
//! and the largest id. Each runs on one node, on three nodes of two workers and
//! on eight of four, where every node's gathers run beside other tasks.

use hamr_workloads::gen::webgraph::zipfian_links;
use hamr_workloads::pagerank::PageRank;
use hamr_workloads::{Benchmark, Env};
use std::collections::BTreeSet;

/// Both engines' answers on `links` agree on every shape, three
/// iterations deep (the third served from the resident cache), and rank
/// every page that has a link.
fn engines_agree(name: &str, links: &[(u64, u64)]) {
    let pages = links
        .iter()
        .flat_map(|&(src, dst)| [src, dst])
        .collect::<BTreeSet<_>>()
        .len() as u64;
    let bench = PageRank {
        iterations: 3,
        ..PageRank::default()
    };
    for (nodes, threads) in [(1, 1), (3, 2), (8, 4)] {
        let env = Env::test(nodes, threads);
        PageRank::seed_links(&env, links).expect("seed");
        let hamr = bench.run_hamr(&env).expect("hamr run");
        let mr = bench.run_mapred(&env).expect("mapred run");
        assert_eq!(
            (hamr.checksum, hamr.records),
            (mr.checksum, mr.records),
            "{name} at {nodes} x {threads}: the engines disagree"
        );
        assert_eq!(hamr.records, pages, "{name} at {nodes} x {threads}");
    }
}

#[test]
fn sparse_ids_and_dangling_pages_rank_alike_on_both_engines() {
    const FAR: u64 = 1 << 32;
    let links = [
        (3, 1_000),
        (3, FAR),
        (3, FAR),
        (1_000, 3),
        (1_000, FAR + 7),
        (FAR, FAR),
        (FAR, 1 << 40),
        (FAR + 7, 3),
        (1 << 40, 3),
        (1 << 40, FAR + 7),
        (1 << 40, u64::MAX - 1),
        // Nothing links to 17; 1 << 63 and u64::MAX - 1 link nowhere.
        (17, 1 << 63),
        (17, 1_000),
    ];
    engines_agree("sparse", &links);
}

#[test]
fn the_largest_page_id_ranks_alike_on_both_engines() {
    // `u64::MAX` is a page like any other: no value of the id domain
    // may double as `InLinkRed`'s "has out-links" marker.
    engines_agree("max id", &[(u64::MAX, 5), (5, 6), (6, u64::MAX)]);
}

#[test]
fn a_spread_out_web_graph_ranks_alike_on_both_engines() {
    // A generated graph's pages, spread over ids past 2^32 with gaps,
    // plus a sink that links nowhere.
    let id = |page: u64| (1 << 33) + page * 7_919;
    let sink = u64::MAX - 5;
    let mut links: Vec<(u64, u64)> = zipfian_links(3_000, 8, 11)
        .into_iter()
        .map(|(src, dst)| (id(src), id(dst)))
        .collect();
    links.extend([(id(1), sink), (id(2_999), sink)]);
    let targets: BTreeSet<u64> = links.iter().map(|&(_, dst)| dst).collect();
    assert!(
        links.iter().any(|(src, _)| !targets.contains(src)),
        "some page has no in-link"
    );
    engines_agree("spread", &links);
}
