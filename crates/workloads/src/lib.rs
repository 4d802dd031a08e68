//! The paper's eight benchmarks, implemented on both engines, plus the
//! synthetic data generators that stand in for the PUMA / HiBench
//! inputs (§4).
//!
//! Every benchmark exposes the same shape: `seed` writes the input into
//! the shared DFS, `run_hamr` executes the flowlet-style algorithm
//! (Algorithms 1–4 of the paper), and `run_mapred` executes the
//! Hadoop-style counterpart (single jobs or chains, as the paper
//! describes for each workload). Deterministic benchmarks also return a
//! `checksum` so tests can verify both engines compute the same answer.

pub mod gen;

pub mod classification;
pub mod histogram_movies;
pub mod histogram_ratings;
pub mod kcliques;
pub mod kmeans;
pub mod naive_bayes;
pub mod pagerank;
pub mod wordcount;

mod env;

pub use env::{BenchOutput, Env, IterStats, SimParams};

/// Uniform interface over the eight benchmarks (used by the harness).
pub trait Benchmark: Send + Sync {
    /// Short name matching the paper's Table 2 row.
    fn name(&self) -> &'static str;

    /// Write this benchmark's input data into the environment's DFS.
    fn seed(&self, env: &Env) -> Result<(), String>;

    /// Run the HAMR (flowlet) implementation.
    fn run_hamr(&self, env: &Env) -> Result<BenchOutput, String>;

    /// Run the Hadoop-style (MapReduce) implementation.
    fn run_mapred(&self, env: &Env) -> Result<BenchOutput, String>;
}

/// All eight benchmarks in Table 2 order.
pub fn all_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(kmeans::KMeans::default()),
        Box::new(classification::Classification::default()),
        Box::new(pagerank::PageRank::default()),
        Box::new(kcliques::KCliques::default()),
        Box::new(wordcount::WordCount::default()),
        Box::new(histogram_movies::HistogramMovies::default()),
        Box::new(histogram_ratings::HistogramRatings::default()),
        Box::new(naive_bayes::NaiveBayes::default()),
    ]
}

/// Skew-stressed variants of all eight benchmarks, in the same order
/// as [`all_benchmarks`]. A handful of hot keys draw almost all the
/// traffic: whole frames land on one destination, partial-reduce
/// stripes collide on one sub-shard, and reduce groups are few and
/// huge. Used by the cross-engine and cross-scheduler differential
/// tests — correctness must hold with no "balanced input" favors.
pub fn skewed_variants() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(kmeans::KMeans {
            movies: 3,
            users: 300,
            max_ratings_per_movie: 1_500,
            k: 2,
        }),
        Box::new(classification::Classification {
            movies: 3,
            users: 300,
            max_ratings_per_movie: 1_500,
            k: 2,
        }),
        // Few pages, many links: the webgraph's Zipfian in-degree makes
        // one page collect nearly every rank contribution.
        Box::new(pagerank::PageRank {
            pages: 12,
            max_out_links: 10,
            iterations: 3,
            resident: true,
        }),
        // Dense RMAT corner: 2^3 vertices with many edges piles the
        // adjacency onto the RMAT hot quadrant.
        Box::new(kcliques::KCliques {
            vertex_scale: 3,
            edges: 600,
            k: 3,
        }),
        // Three-word vocabulary: the Zipf draw makes one word dominate.
        Box::new(wordcount::WordCount {
            lines: 4_000,
            words_per_line: 12,
            vocab: 3,
        }),
        Box::new(histogram_movies::HistogramMovies {
            movies: 2,
            users: 400,
            max_ratings_per_movie: 2_000,
        }),
        Box::new(histogram_ratings::HistogramRatings {
            movies: 2,
            users: 400,
            max_ratings_per_movie: 2_000,
        }),
        // One label, tiny vocabulary: every training pair hits the same
        // few aggregation keys.
        Box::new(naive_bayes::NaiveBayes {
            docs: 1_500,
            words_per_doc: 20,
            vocab: 6,
            labels: 1,
        }),
    ]
}

/// Order-independent checksum over output pairs (used to compare the
/// two engines' results).
pub fn pair_checksum<'a>(pairs: impl Iterator<Item = (&'a [u8], &'a [u8])>) -> u64 {
    let mut acc = 0u64;
    for (k, v) in pairs {
        let h = hamr_codec::stable_hash(k) ^ hamr_codec::stable_hash(v).rotate_left(17);
        acc = acc.wrapping_add(h);
    }
    acc
}

/// [`pair_checksum`] and count of one flowlet's captured records.
pub(crate) fn output_checksum(recs: &[hamr_core::Record]) -> (u64, u64) {
    let pairs = recs.iter().map(|r| (&r.key[..], &r.value[..]));
    (pair_checksum(pairs), recs.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_independent() {
        let a: Vec<(&[u8], &[u8])> = vec![(b"k1", b"v1"), (b"k2", b"v2")];
        let b: Vec<(&[u8], &[u8])> = vec![(b"k2", b"v2"), (b"k1", b"v1")];
        assert_eq!(
            pair_checksum(a.iter().copied()),
            pair_checksum(b.iter().copied())
        );
    }

    #[test]
    fn checksum_detects_value_changes() {
        let a: Vec<(&[u8], &[u8])> = vec![(b"k1", b"v1")];
        let b: Vec<(&[u8], &[u8])> = vec![(b"k1", b"v2")];
        assert_ne!(
            pair_checksum(a.iter().copied()),
            pair_checksum(b.iter().copied())
        );
    }

    #[test]
    fn skewed_variants_mirror_the_benchmark_list() {
        let names: Vec<_> = all_benchmarks().iter().map(|b| b.name()).collect();
        let skewed: Vec<_> = skewed_variants().iter().map(|b| b.name()).collect();
        assert_eq!(names, skewed);
    }

    #[test]
    fn eight_benchmarks_registered() {
        let benches = all_benchmarks();
        assert_eq!(benches.len(), 8);
        let names: Vec<_> = benches.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "K-Means",
                "Classification",
                "PageRank",
                "KCliques",
                "WordCount",
                "HistogramMovies",
                "HistogramRatings",
                "NaiveBayes"
            ]
        );
    }
}
