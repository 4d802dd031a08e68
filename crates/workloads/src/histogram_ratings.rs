//! HistogramRatings (§4, §5.2): histogram of individual user ratings.
//!
//! The pathological benchmark: the key space is exactly five values
//! (ratings 1..=5), so the hash shuffle concentrates the entire input
//! on at most five nodes, flow control throttles the loaders, and the
//! shared partial-reduce accumulators serialize under contention —
//! the combination the paper blames for Hadoop beating HAMR 3x here.

use crate::env::{scaled, BenchOutput, Env};
use crate::gen::movies::{movie_lines, parse_movie_line};
use crate::wordcount::mr_output_checksum;
use crate::{output_checksum, Benchmark};
use hamr_core::{typed, Emitter, Exchange, FlowletId, JobBuilder, JobGraph};
use hamr_mapred::{line_map_fn, reduce_fn, JobConf, ReduceOutput};
use std::sync::Arc;
use std::time::Instant;

const INPUT: &str = "histratings/input.txt";

pub struct HistogramRatings {
    pub movies: usize,
    pub users: usize,
    pub max_ratings_per_movie: usize,
}

impl Default for HistogramRatings {
    fn default() -> Self {
        // ~30 GB / 4096 ≈ 7 MB of rating lines.
        HistogramRatings {
            movies: 80_000,
            users: 10_000,
            max_ratings_per_movie: 25,
        }
    }
}

impl HistogramRatings {
    fn lines(&self, env: &Env) -> Vec<String> {
        movie_lines(
            scaled(self.movies, env.params.scale),
            self.users,
            self.max_ratings_per_movie,
            env.params.seed.wrapping_add(2),
        )
    }

    /// The HAMR job over the seeded input, with the id of its summing
    /// flowlet. `combiner` adds an explicit local partial-reduce stage
    /// before the shuffle.
    pub fn hamr_graph(combiner: bool) -> Result<(JobGraph, FlowletId), String> {
        let mut job = JobBuilder::new("histogram-ratings");
        let loader = job.add_loader("TextLoader", typed::dfs_line_loader(INPUT));
        let rating_map = job.add_map(
            "RatingMap",
            typed::map_fn(|_off: u64, line: String, out: &mut Emitter| {
                if let Some((_, ratings)) = parse_movie_line(&line) {
                    for (_, r) in ratings {
                        out.emit_t(0, &u64::from(r), &1u64);
                    }
                }
            }),
        );
        let sum = job.add_partial_reduce("RatingSum", typed::sum_reducer::<u64>());
        job.connect(loader, rating_map, Exchange::Local);
        if combiner {
            let local = job.add_partial_reduce("LocalCombine", typed::sum_reducer::<u64>());
            job.connect(rating_map, local, Exchange::Local);
            job.connect_combined(local, sum, Exchange::Hash, typed::sum_combiner());
        } else {
            // The skew layer's in-node combiner (when enabled) folds the
            // per-rating counts before the shuffle; the registration is
            // inert under `HAMR_SKEW=off`.
            job.connect_combined(rating_map, sum, Exchange::Hash, typed::sum_combiner());
        }
        job.capture_output(sum);
        let graph = job.build().map_err(|e| e.to_string())?;
        Ok((graph, sum))
    }

    pub fn run_hamr_with(&self, env: &Env, combiner: bool) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let (graph, sum) = Self::hamr_graph(combiner)?;
        let result = env.hamr.run(graph).map_err(|e| e.to_string())?;
        let (checksum, records) = output_checksum(result.output(sum));
        Ok(BenchOutput::hamr(
            start.elapsed(),
            checksum,
            records,
            &[result],
        ))
    }

    /// The Hadoop job over the seeded input, writing under `output`.
    pub fn mapred_conf(output: &str, combiner: bool) -> JobConf {
        let mapper = Arc::new(line_map_fn(|_off, line, out| {
            if let Some((_, ratings)) = parse_movie_line(line) {
                for (_, r) in ratings {
                    out.emit_t(&u64::from(r), &1u64);
                }
            }
        }));
        let reducer = Arc::new(reduce_fn(|k: u64, vs: Vec<u64>, out: &mut ReduceOutput| {
            out.emit_t(&k, &vs.iter().sum::<u64>());
        }));
        let mut conf = JobConf::new(
            "histogram-ratings",
            vec![INPUT.to_string()],
            output,
            mapper,
            reducer.clone(),
        );
        if combiner {
            conf = conf.with_combiner(reducer);
        }
        conf
    }

    pub fn run_mapred_with(&self, env: &Env, combiner: bool) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let output = env.unique_path("histratings/out");
        let conf = Self::mapred_conf(&output, combiner);
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

impl Benchmark for HistogramRatings {
    fn name(&self) -> &'static str {
        "HistogramRatings"
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
