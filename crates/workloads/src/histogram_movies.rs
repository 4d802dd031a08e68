//! HistogramMovies (§4): histogram of movies by average rating,
//! bucketed in half-star bins (PUMA's definition).
//!
//! Simple and IO-bound: the paper's Fig. 3(b) class, where Hadoop is
//! competitive. Also one of the two Table 3 benchmarks (HAMR +
//! combiner flowlet).

use crate::env::{scaled, BenchOutput, Env};
use crate::gen::movies::{mean_rating, movie_lines, parse_movie_line};
use crate::wordcount::mr_output_checksum;
use crate::{output_checksum, Benchmark};
use hamr_core::{typed, Emitter, Exchange, JobBuilder};
use hamr_mapred::{line_map_fn, reduce_fn, JobConf, ReduceOutput};
use std::sync::Arc;
use std::time::Instant;

const INPUT: &str = "histmovies/input.txt";

/// Half-star bin (2..=10) of an average rating in [1, 5].
fn half_star_bin(avg: f64) -> u64 {
    ((avg * 2.0).floor() as u64).clamp(2, 10)
}

pub struct HistogramMovies {
    pub movies: usize,
    pub users: usize,
    pub max_ratings_per_movie: usize,
}

impl Default for HistogramMovies {
    fn default() -> Self {
        // ~30 GB / 4096 ≈ 7 MB of rating lines.
        HistogramMovies {
            movies: 80_000,
            users: 10_000,
            max_ratings_per_movie: 25,
        }
    }
}

impl HistogramMovies {
    fn lines(&self, env: &Env) -> Vec<String> {
        movie_lines(
            scaled(self.movies, env.params.scale),
            self.users,
            self.max_ratings_per_movie,
            env.params.seed.wrapping_add(1),
        )
    }

    /// HAMR run; `combiner` inserts a node-local pre-aggregation
    /// partial reduce before the shuffle (the Table 3 configuration).
    pub fn run_hamr_with(&self, env: &Env, combiner: bool) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let mut job = JobBuilder::new("histogram-movies");
        let loader = job.add_loader("TextLoader", typed::dfs_line_loader(INPUT));
        let bin_map = job.add_map(
            "BinMap",
            typed::map_fn(|_off: u64, line: String, out: &mut Emitter| {
                if let Some((_, ratings)) = parse_movie_line(&line) {
                    if let Some(avg) = mean_rating(&ratings) {
                        out.emit_t(0, &half_star_bin(avg), &1u64);
                    }
                }
            }),
        );
        let sum = job.add_partial_reduce("BinSum", typed::sum_reducer::<u64>());
        job.connect(loader, bin_map, Exchange::Local);
        if combiner {
            let local = job.add_partial_reduce("LocalCombine", typed::sum_reducer::<u64>());
            job.connect(bin_map, local, Exchange::Local);
            job.connect_combined(local, sum, Exchange::Hash, typed::sum_combiner());
        } else {
            job.connect_combined(bin_map, sum, Exchange::Hash, typed::sum_combiner());
        }
        job.capture_output(sum);
        let result = env
            .hamr
            .run(job.build().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let (checksum, records) = output_checksum(result.output(sum));
        Ok(BenchOutput::hamr(
            start.elapsed(),
            checksum,
            records,
            &[result],
        ))
    }

    pub fn run_mapred_with(&self, env: &Env, combiner: bool) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let output = env.unique_path("histmovies/out");
        let mapper = Arc::new(line_map_fn(|_off, line, out| {
            if let Some((_, ratings)) = parse_movie_line(line) {
                if let Some(avg) = mean_rating(&ratings) {
                    out.emit_t(&half_star_bin(avg), &1u64);
                }
            }
        }));
        let reducer = Arc::new(reduce_fn(|k: u64, vs: Vec<u64>, out: &mut ReduceOutput| {
            out.emit_t(&k, &vs.iter().sum::<u64>());
        }));
        let mut conf = JobConf::new(
            "histogram-movies",
            vec![INPUT.to_string()],
            &output,
            mapper,
            reducer.clone(),
        );
        if combiner {
            conf = conf.with_combiner(reducer);
        }
        let stats = env.mr.run(&conf).map_err(|e| e.to_string())?;
        let (checksum, records) = mr_output_checksum(env, &output)?;
        Ok(BenchOutput::mapred(
            start.elapsed(),
            checksum,
            records,
            &[stats],
        ))
    }
}

impl Benchmark for HistogramMovies {
    fn name(&self) -> &'static str {
        "HistogramMovies"
    }

    fn seed(&self, env: &Env) -> Result<(), String> {
        env.seed_text(INPUT, &self.lines(env))
    }

    fn run_hamr(&self, env: &Env) -> Result<BenchOutput, String> {
        self.run_hamr_with(env, false)
    }

    fn run_mapred(&self, env: &Env) -> Result<BenchOutput, String> {
        self.run_mapred_with(env, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_cover_the_rating_range() {
        assert_eq!(half_star_bin(1.0), 2);
        assert_eq!(half_star_bin(1.4), 2);
        assert_eq!(half_star_bin(1.5), 3);
        assert_eq!(half_star_bin(3.75), 7);
        assert_eq!(half_star_bin(5.0), 10);
    }
}
