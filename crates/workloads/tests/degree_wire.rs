//! What PageRank's iteration 0 ships to give every node each page's
//! out-degree. Each node sends its degrees as one page-sorted blob of
//! `(page delta, degree)` varints, about two bytes a page, where one
//! `(page, UNIT / deg)` record per page and receiving node cost about
//! seven. The audit ledger counts the payload bytes of every bin, so
//! the count is exact: the bytes shipped on the job's one broadcast
//! edge, over the pages with out-links and the nodes that receive them.

use hamr_core::{Exchange, RunOptions, Supervision};
use hamr_trace::AuditStage;
use hamr_workloads::gen::webgraph::zipfian_links;
use hamr_workloads::pagerank::PageRank;
use hamr_workloads::Env;
use std::collections::BTreeSet;

#[test]
fn the_degree_exchange_ships_under_two_and_a_half_bytes_a_page() {
    const NODES: usize = 2;
    let env = Env::test(NODES, 2);
    let links = zipfian_links(20_000, 16, 2021);
    let pages = links
        .iter()
        .map(|&(src, _)| src)
        .collect::<BTreeSet<_>>()
        .len() as u64;
    PageRank::seed_links(&env, &links).expect("seed");
    env.reset_namespace("pr/");
    env.hamr.set_run_options(RunOptions {
        supervision: Some(Supervision {
            doctor_dir: None,
            ..Default::default()
        }),
        ..Default::default()
    });
    let bench = PageRank::default();
    let setup = &bench.iteration_jobs(&env, 0).expect("iteration 0")[0];
    let broadcast: Vec<usize> = (0..setup.edges.len())
        .filter(|&e| setup.edges[e].exchange == Exchange::Broadcast)
        .collect();
    let [edge] = broadcast[..] else {
        panic!("iteration 0 has one broadcast edge, the degrees', not {broadcast:?}");
    };
    bench.run_hamr_iteration(&env, 0).expect("iteration 0");

    let report = env.hamr.last_audit().expect("supervised runs are audited");
    report.check().expect("custody must balance");
    let shipped: u64 = report
        .rows
        .iter()
        .filter(|row| row.edge as usize == edge)
        .map(|row| row.stage(AuditStage::Ship).bytes)
        .sum();
    // Measured: 2.03 B a page; 7.2 B with a record per page.
    let per_page = shipped as f64 / (pages * NODES as u64) as f64;
    assert!(
        per_page <= 2.5,
        "{shipped} B shipped for {pages} pages to {NODES} nodes: {per_page:.2} B a page"
    );
}
