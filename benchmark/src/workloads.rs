//! The four workloads. Each is one `hamr_workloads::Benchmark` at a
//! fixed shape on fixed substrates; `BENCHMARK.json` and
//! `benchmark/README.md` say why each was chosen and which layers it
//! is expected to stress.

use hamr_workloads::histogram_ratings::HistogramRatings;
use hamr_workloads::pagerank::PageRank;
use hamr_workloads::wordcount::WordCount;
use hamr_workloads::{Benchmark, SimParams};

/// `--quick` multiplies every input scale by this (self-tests only;
/// quick results are marked not comparable).
pub const QUICK_SCALE: f64 = 0.05;

pub struct Workload {
    pub name: &'static str,
    pub bench: Box<dyn Benchmark>,
    /// Substrates and input scale; topology and seed are filled in by
    /// [`Workload::params`].
    base: SimParams,
    /// HAMR reps per mapred rep in one measured round.
    pub hamr_per_round: usize,
    /// Table 2 of the paper: Hadoop time / HAMR time.
    pub paper_speedup_x: f64,
    /// Input shape, recorded so `compare` can refuse unlike files.
    pub sizes: String,
}

impl Workload {
    /// The simulation parameters of one set-up: the workload's
    /// substrates on the harness topology, inputs generated from `seed`.
    pub fn params(&self, threads_per_node: usize, seed: u64) -> SimParams {
        SimParams {
            nodes: NODES,
            threads_per_node,
            seed,
            ..self.base.clone()
        }
    }
}

/// Every workload runs on two nodes: the smallest cluster with a
/// fabric between the nodes.
pub const NODES: usize = 2;

/// Worker threads per node for this host: half the cores each, at
/// least one, at most four.
pub fn threads_per_node(cores: usize) -> usize {
    (cores / NODES).clamp(1, 4)
}

pub fn all(quick: bool) -> Vec<Workload> {
    let scale = |s: f64| if quick { s * QUICK_SCALE } else { s };
    let instant = |s: f64| SimParams::test(NODES, 1).with_scale(scale(s));
    let modeled = |s: f64| SimParams::paper_scaled().with_scale(scale(s));
    let wc = WordCount::default();
    let wide = WordCount {
        vocab: 2_000_000,
        ..WordCount::default()
    };
    let hist = HistogramRatings::default();
    let pr = PageRank::default();
    vec![
        Workload {
            name: "wordcount_cpu",
            sizes: format!(
                "WordCount lines={} words_per_line={} vocab={} scale={}",
                wc.lines,
                wc.words_per_line,
                wc.vocab,
                scale(8.0)
            ),
            bench: Box::new(wc),
            base: instant(8.0),
            hamr_per_round: 1,
            paper_speedup_x: 89.904 / 75.078,
        },
        Workload {
            name: "wordcount_shuffle",
            sizes: format!(
                "WordCount lines={} words_per_line={} vocab={} scale={}",
                wide.lines,
                wide.words_per_line,
                wide.vocab,
                scale(2.0)
            ),
            bench: Box::new(wide),
            base: modeled(2.0),
            hamr_per_round: 2,
            paper_speedup_x: 89.904 / 75.078,
        },
        Workload {
            name: "histratings_io",
            sizes: format!(
                "HistogramRatings movies={} users={} max_ratings={} scale={}",
                hist.movies,
                hist.users,
                hist.max_ratings_per_movie,
                scale(2.0)
            ),
            bench: Box::new(hist),
            base: modeled(2.0),
            hamr_per_round: 2,
            paper_speedup_x: 66.694 / 252.198,
        },
        Workload {
            name: "pagerank_chain",
            sizes: format!(
                "PageRank pages={} max_out_links={} iterations={} resident={} scale={}",
                pr.pages,
                pr.max_out_links,
                pr.iterations,
                pr.resident,
                scale(1.0)
            ),
            bench: Box::new(pr),
            base: modeled(1.0),
            hamr_per_round: 3,
            paper_speedup_x: 2162.102 / 158.853,
        },
    ]
}
