//! Workload-level acceptance for the durable flight journal: a real
//! iterative chain (PageRank) journals every job in its session, on
//! both engines, and the offline timeline reconstructs the chain — one
//! span per iteration job, per-iteration shuffled-bytes deltas, one
//! `mapred` row per baseline job, and a usable `--diff` against a
//! second run's journal.

use hamr_trace::{JobRow, Timeline};
use hamr_workloads::pagerank::PageRank;
use hamr_workloads::{Benchmark, Env};
use std::path::PathBuf;

fn journal_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hamr_journal_workload_{}_{test}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pagerank(resident: bool) -> PageRank {
    PageRank {
        pages: 2_000,
        max_out_links: 32,
        iterations: 3,
        resident,
    }
}

#[test]
fn pagerank_chain_journals_every_iteration_job() {
    let dir = journal_dir("chain");
    let env = Env::test(3, 2);
    env.hamr.enable_journal(&dir).expect("enable journal");
    pagerank(true).seed(&env).expect("seed");
    pagerank(true).run_hamr(&env).expect("chain run");
    drop(env);

    let timeline = Timeline::load(&dir).expect("load timeline");
    // The chain is iter0 + (ship, update) per later iteration — every
    // job name must appear as a completed span.
    for job in [
        "pagerank-iter0",
        "pagerank-ship1",
        "pagerank-update1",
        "pagerank-ship2",
        "pagerank-update2",
    ] {
        let span = timeline
            .jobs
            .iter()
            .find(|j| j.job == job)
            .unwrap_or_else(|| panic!("{job} missing from timeline: {:?}", timeline.jobs));
        assert_eq!(span.ok(), Some(true), "{job} did not complete: {span:?}");
        assert!(
            span.row
                .as_ref()
                .is_some_and(|r| r.shuffle_records.is_some()),
            "{job} carries no row of its own: {span:?}"
        );
    }
    // Per-iteration metrics are deltas, not cumulative: the fill
    // iteration ships the reverse adjacency, later ship jobs are
    // served from the resident cache and must ship strictly less.
    let ship_bytes = |name: &str| {
        timeline
            .jobs
            .iter()
            .find(|j| j.job == name)
            .and_then(|j| j.row.as_ref())
            .map_or(0, |r| r.shuffled_bytes)
    };
    assert!(
        ship_bytes("pagerank-ship2") < ship_bytes("pagerank-iter0"),
        "cached iteration should ship less than the fill iteration: \
         iter0={} ship2={}",
        ship_bytes("pagerank-iter0"),
        ship_bytes("pagerank-ship2"),
    );
    assert!(timeline.unfinished().is_empty(), "no job was cut short");
    assert!(timeline.render().contains("pagerank-iter0"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Both engines on one journaled `Env`: the baseline journals through
/// the cluster's journal slot, attached after the `Env` was built, so
/// the timeline lists every job of both engines — each engine's rows
/// exactly as its `BenchOutput` carries them, in run order.
#[test]
fn one_journal_lists_every_job_of_both_engines() {
    let dir = journal_dir("both_engines");
    let env = Env::test(3, 2);
    env.hamr.enable_journal(&dir).expect("enable journal");
    pagerank(true).seed(&env).expect("seed");
    let hamr = pagerank(true).run_hamr(&env).expect("hamr chain");
    let mr = pagerank(true).run_mapred(&env).expect("mapred chain");
    drop(env);

    let timeline = Timeline::load(&dir).expect("load timeline");
    let rows = |engine: &str| -> Vec<JobRow> {
        let spans = timeline.jobs.iter().filter(|s| s.engine == engine);
        spans.map(|s| s.row.clone().expect("a JobEnd")).collect()
    };
    assert_eq!(rows("hamr"), hamr.jobs);
    assert_eq!(
        mr.jobs.len(),
        7,
        "adjacency, then contrib + update per iteration"
    );
    assert_eq!(rows("mapred"), mr.jobs);
    for row in &mr.jobs {
        assert!(row.ok && row.shuffled_bytes > 0, "{row:?}");
        assert_eq!(row.cache_hits, None, "the baseline has no resident cache");
    }
    let rendered = timeline.render();
    let mapred_rows = rendered.lines().filter(|l| {
        let cols: Vec<&str> = l.split_whitespace().collect();
        cols.get(1) == Some(&"mapred")
    });
    assert_eq!(mapred_rows.count(), 7, "{rendered}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_compares_two_chain_journals_job_by_job() {
    let dir_a = journal_dir("diff_a");
    let dir_b = journal_dir("diff_b");
    for (dir, resident) in [(&dir_a, true), (&dir_b, false)] {
        let env = Env::test(3, 2);
        env.hamr.enable_journal(dir).expect("enable journal");
        pagerank(resident).seed(&env).expect("seed");
        pagerank(resident).run_hamr(&env).expect("chain run");
    }
    let a = Timeline::load(&dir_a).expect("load a");
    let b = Timeline::load(&dir_b).expect("load b");
    let diff = Timeline::render_diff(&a, &b);
    // Shared jobs are paired by name; the diff names them all.
    for job in ["pagerank-iter0", "pagerank-ship1", "pagerank-update2"] {
        assert!(diff.contains(job), "diff omits {job}:\n{diff}");
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
