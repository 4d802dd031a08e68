//! Classification (§4): assign each movie to its nearest *fixed*
//! centroid — K-Means without the centroid update.
//!
//! The locality story (§3.3): HAMR writes the classified results on
//! each node's local disk directly from the map side and ships only
//! tiny per-cluster counters; Hadoop must shuffle the full movie data
//! to reducers to produce its output (13x in Table 2).

use crate::env::{scaled, BenchOutput, Env};
use crate::gen::movies::movie_lines;
use crate::kmeans::{assign, load_centroids, parse_vector};
use crate::wordcount::mr_output_checksum;
use crate::{output_checksum, Benchmark};
use hamr_codec::Codec;
use hamr_core::{typed, Emitter, Exchange, JobBuilder};
use hamr_mapred::{line_map_fn, reduce_fn, JobConf, ReduceOutput};
use std::sync::Arc;
use std::time::Instant;

const INPUT: &str = "classification/input.txt";

pub struct Classification {
    pub movies: usize,
    pub users: usize,
    pub max_ratings_per_movie: usize,
    pub k: usize,
}

impl Default for Classification {
    fn default() -> Self {
        // Same input scale as K-Means (300 GB in the paper).
        Classification {
            movies: 60_000,
            users: 4_000,
            max_ratings_per_movie: 50,
            k: 8,
        }
    }
}

impl Classification {
    fn centroid_path() -> &'static str {
        "classification/centroids.txt"
    }
}

impl Benchmark for Classification {
    fn name(&self) -> &'static str {
        "Classification"
    }

    fn seed(&self, env: &Env) -> Result<(), String> {
        let lines = movie_lines(
            scaled(self.movies, env.params.scale),
            self.users,
            self.max_ratings_per_movie,
            env.params.seed.wrapping_add(5),
        );
        env.seed_text(INPUT, &lines)?;
        let k = self.k.min(lines.len());
        env.seed_text(Self::centroid_path(), &lines[..k])
    }

    fn run_hamr(&self, env: &Env) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let centroids = load_centroids(env, Self::centroid_path())?;
        let mut job = JobBuilder::new("classification");
        let loader = job.add_loader("TextLoader", typed::dfs_line_loader(INPUT));
        let classify = {
            let centroids = Arc::clone(&centroids);
            job.add_map(
                "ClassifyMap",
                typed::map_fn(move |_off: u64, line: String, out: &mut Emitter| {
                    if let Some((movie, vector)) = parse_vector(&line) {
                        let (c, _sim) = assign(&vector, &centroids);
                        out.emit_t(0, &(c as u64), &movie);
                    }
                }),
            )
        };
        // Node-local collector: materializes each cluster's members on
        // the node's own disk (the paper's map-side local output) and
        // forwards only a count.
        let collect = job.add_partial_reduce(
            "LocalAssignCollect",
            typed::partial_fn::<u64, u64, Vec<u64>, _, _, _>(
                |movie| vec![movie],
                |mut acc, movie| {
                    acc.push(movie);
                    acc
                },
                |ctx, cluster, members, out: &mut Emitter| {
                    // Write this node's slice of the cluster locally.
                    let name = format!("cls.out.c{cluster}.n{}", ctx.node);
                    ctx.disk.delete(&name); // rerun-safe
                    let _ = ctx.disk.write_all(&name, &members.to_bytes());
                    out.emit_t(0, &cluster, &(members.len() as u64));
                },
            ),
        );
        let count = job.add_partial_reduce("ClusterCount", typed::sum_reducer::<u64>());
        job.connect(loader, classify, Exchange::Local);
        job.connect(classify, collect, Exchange::Local);
        job.connect_combined(collect, count, Exchange::Hash, typed::sum_combiner());
        job.capture_output(count);
        let result = env
            .hamr
            .run(job.build().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let (checksum, records) = output_checksum(result.output(count));
        Ok(BenchOutput::hamr(
            start.elapsed(),
            checksum,
            records,
            &[result],
        ))
    }

    fn run_mapred(&self, env: &Env) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let centroids = load_centroids(env, Self::centroid_path())?;
        let output = env.unique_path("classification/out");
        let conf = JobConf::new(
            "classification",
            vec![INPUT.to_string()],
            &output,
            Arc::new(line_map_fn(move |_off, line, out| {
                if let Some((_movie, vector)) = parse_vector(line) {
                    let (c, _sim) = assign(&vector, &centroids);
                    // Hadoop's output is produced in the reduce phase,
                    // so the classified movie data itself is shuffled.
                    out.emit_t(&(c as u64), &line.to_string());
                }
            })),
            Arc::new(reduce_fn(
                |cluster: u64, members: Vec<String>, out: &mut ReduceOutput| {
                    out.emit_t(&cluster, &(members.len() as u64));
                },
            )),
        );
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
