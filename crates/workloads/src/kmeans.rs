//! K-Means, single iteration (§4, Alg. 1) — the flagship
//! locality-awareness benchmark (10.3x in Table 2).
//!
//! Movie vectors are sparse `(user, rating)` lists; similarity is
//! cosine; the new centroid of a cluster is its best representative
//! movie (the one most similar to the old centroid, ties to the
//! smallest movie id), which makes the iteration deterministic and
//! identical across engines.
//!
//! * HAMR (Alg. 1): `TextLoader → ClusterGen(map) →
//!   NewCentroidGen(reduce) → NewCentroidInfoGet(map) →
//!   CentroidUpdate(map)`. ClusterGen ships only `(similarity,
//!   movie id, node, byte offset)` — a few dozen bytes per movie —
//!   and NewCentroidGen routes a `(cluster, offset)` *reference* back
//!   to the node holding the winning movie's block
//!   (`Exchange::KeyNode`), which re-reads the line locally and
//!   broadcasts it. The full movie vectors never cross the network.
//! * Hadoop: a single job whose map must ship `(cluster, similarity,
//!   full movie line)` to the reducers — the data movement the paper
//!   blames for the 10x gap.

use crate::env::{scaled, BenchOutput, Env};
use crate::gen::movies::{movie_lines, parse_movie_line};
use crate::wordcount::mr_output_checksum;
use crate::{pair_checksum, Benchmark};
use hamr_codec::Codec;
use hamr_core::{typed, Emitter, Exchange, JobBuilder, TaskContext};
use hamr_mapred::{line_map_fn, reduce_fn, JobConf, ReduceOutput};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const INPUT: &str = "kmeans/input.txt";

/// One centroid: its source movie id and sparse rating vector.
#[derive(Debug, Clone)]
pub(crate) struct Centroid {
    /// Source movie id (diagnostic; assignments only use the vector).
    #[allow(dead_code)]
    pub movie: u64,
    pub vector: Vec<(u64, u32)>,
    pub norm: f64,
}

pub(crate) fn vector_norm(v: &[(u64, u32)]) -> f64 {
    v.iter()
        .map(|&(_, r)| f64::from(r) * f64::from(r))
        .sum::<f64>()
        .sqrt()
}

/// Cosine similarity between two sparse vectors sorted by user id.
pub(crate) fn cosine(a: &[(u64, u32)], a_norm: f64, b: &[(u64, u32)], b_norm: f64) -> f64 {
    if a_norm == 0.0 || b_norm == 0.0 {
        return 0.0;
    }
    let mut dot = 0.0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += f64::from(a[i].1) * f64::from(b[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    dot / (a_norm * b_norm)
}

/// Parse a movie line into a (movie, sorted vector) pair.
pub(crate) fn parse_vector(line: &str) -> Option<(u64, Vec<(u64, u32)>)> {
    let (movie, mut ratings) = parse_movie_line(line)?;
    ratings.sort_unstable_by_key(|&(u, _)| u);
    ratings.dedup_by_key(|&mut (u, _)| u);
    Some((movie, ratings))
}

/// Load the shared centroid file (the paper's "initialize parameters
/// including initial centroids" step).
pub(crate) fn load_centroids(env: &Env, path: &str) -> Result<Arc<Vec<Centroid>>, String> {
    let raw = env.dfs.read_all(path).map_err(|e| e.to_string())?;
    let mut centroids = Vec::new();
    for line in raw.split(|&b| b == b'\n') {
        if line.is_empty() {
            continue;
        }
        let text = String::from_utf8_lossy(line);
        if let Some((movie, vector)) = parse_vector(&text) {
            let norm = vector_norm(&vector);
            centroids.push(Centroid {
                movie,
                vector,
                norm,
            });
        }
    }
    if centroids.is_empty() {
        return Err("no centroids parsed".into());
    }
    Ok(Arc::new(centroids))
}

/// Best cluster for a movie vector: max cosine, ties to the lowest
/// cluster index.
pub(crate) fn assign(vector: &[(u64, u32)], centroids: &[Centroid]) -> (usize, f64) {
    let norm = vector_norm(vector);
    let mut best = (0usize, f64::NEG_INFINITY);
    for (c, centroid) in centroids.iter().enumerate() {
        let sim = cosine(vector, norm, &centroid.vector, centroid.norm);
        if sim > best.1 {
            best = (c, sim);
        }
    }
    best
}

/// Read the text line starting at global byte `offset` of a DFS file,
/// preferring the local replica (the route-back-to-the-data step).
pub(crate) fn read_line_at(ctx: &TaskContext, path: &str, offset: u64) -> Option<String> {
    let blocks = ctx.dfs.blocks(path).ok()?;
    let mut base = 0u64;
    for (i, b) in blocks.iter().enumerate() {
        if offset < base + b.len as u64 {
            let payload = ctx.dfs.read_block(path, i, Some(ctx.node)).ok()?;
            let start = (offset - base) as usize;
            let slice = payload.get(start..)?;
            let end = slice
                .iter()
                .position(|&c| c == b'\n')
                .unwrap_or(slice.len());
            return Some(String::from_utf8_lossy(&slice[..end]).into_owned());
        }
        base += b.len as u64;
    }
    None
}

pub struct KMeans {
    pub movies: usize,
    pub users: usize,
    pub max_ratings_per_movie: usize,
    pub k: usize,
}

impl Default for KMeans {
    fn default() -> Self {
        // The paper's largest input (300 GB): ~16 MB scaled.
        KMeans {
            movies: 60_000,
            users: 4_000,
            max_ratings_per_movie: 50,
            k: 8,
        }
    }
}

impl KMeans {
    fn centroid_path() -> &'static str {
        "kmeans/centroids.txt"
    }

    /// Locality ablation: the same HAMR job graph but *shipping the
    /// full movie line* to `NewCentroidGen` instead of a reference —
    /// HAMR without §3.3's data-locality awareness. Same answer,
    /// roughly an order of magnitude more bytes shuffled.
    pub fn run_hamr_ship_data(&self, env: &Env) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let centroids = load_centroids(env, Self::centroid_path())?;
        let mut job = JobBuilder::new("kmeans-shipdata");
        let loader = job.add_loader("TextLoader", typed::dfs_line_loader(INPUT));
        let cluster_gen = {
            let centroids = Arc::clone(&centroids);
            job.add_map(
                "ClusterGenShip",
                typed::map_fn(move |_off: u64, line: String, out: &mut Emitter| {
                    if let Some((movie, vector)) = parse_vector(&line) {
                        let (c, sim) = assign(&vector, &centroids);
                        out.emit_t(0, &(c as u64), &(sim, movie, line));
                    }
                }),
            )
        };
        let new_centroid_gen = job.add_reduce(
            "NewCentroidGen",
            typed::reduce_fn(
                |cluster: u64, candidates: typed::Values<(f64, u64, String)>, out: &mut Emitter| {
                    let best = candidates
                        .max_by(|a, b| {
                            a.0.partial_cmp(&b.0)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then(b.1.cmp(&a.1))
                        })
                        .expect("non-empty cluster");
                    out.emit_t(0, &cluster, &best.2);
                },
            ),
        );
        let update = job.add_map(
            "CentroidUpdate",
            typed::map_ctx_fn(|ctx, cluster: u64, line: String, out: &mut Emitter| {
                let mut key = b"km/c".to_vec();
                cluster.encode(&mut key);
                ctx.kv.put(key.into(), bytes::Bytes::from(line.clone()));
                if let Some((movie, _)) = parse_vector(&line) {
                    out.output_t(&cluster, &movie);
                }
            }),
        );
        job.connect(loader, cluster_gen, Exchange::Local);
        job.connect(cluster_gen, new_centroid_gen, Exchange::Hash);
        job.connect(new_centroid_gen, update, Exchange::Broadcast);
        job.capture_output(update);
        // Same resident tag as `run_hamr`: the parsed input lines are
        // identical in both variants, so either fills for the other.
        job.resident(loader, "km/lines", env.hamr.fingerprint(INPUT));
        let result = env
            .hamr
            .run(job.build().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let mut unique: BTreeMap<u64, u64> = BTreeMap::new();
        for (cluster, movie) in result.typed_output::<u64, u64>(update) {
            unique.insert(cluster, movie);
        }
        let (checksum, records) = centroid_checksum(&unique);
        Ok(BenchOutput::hamr(start.elapsed(), checksum, records, &[result]))
    }
}

/// Checksum and count of the `(cluster, centroid movie)` pairs.
fn centroid_checksum(centroids: &BTreeMap<u64, u64>) -> (u64, u64) {
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = centroids
        .iter()
        .map(|(c, m)| (c.to_bytes().to_vec(), m.to_bytes().to_vec()))
        .collect();
    let checksum = pair_checksum(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
    (checksum, pairs.len() as u64)
}

impl Benchmark for KMeans {
    fn name(&self) -> &'static str {
        "K-Means"
    }

    fn seed(&self, env: &Env) -> Result<(), String> {
        let lines = movie_lines(
            scaled(self.movies, env.params.scale),
            self.users,
            self.max_ratings_per_movie,
            env.params.seed.wrapping_add(4),
        );
        env.seed_text(INPUT, &lines)?;
        // The first k movies seed the centroids.
        let k = self.k.min(lines.len());
        env.seed_text(Self::centroid_path(), &lines[..k])
    }

    fn run_hamr(&self, env: &Env) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let centroids = load_centroids(env, Self::centroid_path())?;
        let mut job = JobBuilder::new("kmeans");
        let loader = job.add_loader("TextLoader", typed::dfs_line_loader(INPUT));
        let cluster_gen = {
            let centroids = Arc::clone(&centroids);
            job.add_map(
                "ClusterGen",
                typed::map_ctx_fn(move |ctx, offset: u64, line: String, out: &mut Emitter| {
                    if let Some((movie, vector)) = parse_vector(&line) {
                        let (c, sim) = assign(&vector, &centroids);
                        // Only a reference crosses the network:
                        // (similarity, movie, holder node, byte offset).
                        out.emit_t(0, &(c as u64), &(sim, movie, ctx.node as u64, offset));
                    }
                }),
            )
        };
        let new_centroid_gen = job.add_reduce(
            "NewCentroidGen",
            typed::reduce_fn(
                |cluster: u64,
                 candidates: typed::Values<(f64, u64, u64, u64)>,
                 out: &mut Emitter| {
                    // Max similarity; ties to the smallest movie id.
                    let best = candidates
                        .max_by(|a, b| {
                            a.0.partial_cmp(&b.0)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then(b.1.cmp(&a.1))
                        })
                        .expect("non-empty cluster");
                    let (_sim, _movie, node, offset) = best;
                    out.emit_t(0, &node, &(cluster, offset));
                },
            ),
        );
        let info_get = job.add_map(
            "NewCentroidInfoGet",
            typed::map_ctx_fn(
                move |ctx, _node: u64, (cluster, offset): (u64, u64), out: &mut Emitter| {
                    let line = read_line_at(ctx, INPUT, offset)
                        .expect("centroid reference points at a line");
                    out.emit_t(0, &cluster, &line);
                },
            ),
        );
        let update = job.add_map(
            "CentroidUpdate",
            typed::map_ctx_fn(|ctx, cluster: u64, line: String, out: &mut Emitter| {
                // Every node stores the new centroid locally (Alg. 1
                // step 6); one representative output per node.
                let mut key = b"km/c".to_vec();
                cluster.encode(&mut key);
                ctx.kv.put(key.into(), bytes::Bytes::from(line.clone()));
                if let Some((movie, _)) = parse_vector(&line) {
                    out.output_t(&cluster, &movie);
                }
            }),
        );
        job.connect(loader, cluster_gen, Exchange::Local);
        job.connect(cluster_gen, new_centroid_gen, Exchange::Hash);
        job.connect(new_centroid_gen, info_get, Exchange::KeyNode);
        job.connect(info_get, update, Exchange::Broadcast);
        job.capture_output(update);
        // M3R-style de-duplicated input loading: the split text lines
        // are input-invariant, so pin them. A rerun in the same
        // cluster (or the ship-data ablation, which shares the tag)
        // serves the lines from memory instead of re-reading the DFS —
        // the assignment map still runs against fresh centroids.
        job.resident(loader, "km/lines", env.hamr.fingerprint(INPUT));
        let result = env
            .hamr
            .run(job.build().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        // Every node captured a copy of each (cluster, movie); dedupe.
        let mut unique: BTreeMap<u64, u64> = BTreeMap::new();
        for (cluster, movie) in result.typed_output::<u64, u64>(update) {
            let prev = unique.insert(cluster, movie);
            if let Some(p) = prev {
                assert_eq!(p, movie, "nodes disagree on centroid for {cluster}");
            }
        }
        let (checksum, records) = centroid_checksum(&unique);
        Ok(BenchOutput::hamr(start.elapsed(), checksum, records, &[result]))
    }

    fn run_mapred(&self, env: &Env) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let centroids = load_centroids(env, Self::centroid_path())?;
        let output = env.unique_path("kmeans/out");
        let conf = JobConf::new(
            "kmeans",
            vec![INPUT.to_string()],
            &output,
            Arc::new(line_map_fn(move |_off, line, out| {
                if let Some((movie, vector)) = parse_vector(line) {
                    let (c, sim) = assign(&vector, &centroids);
                    // Hadoop ships the similarity AND the whole movie
                    // line to the reducer (sorted + spilled + shuffled).
                    out.emit_t(&(c as u64), &(sim, movie, line.to_string()));
                }
            })),
            Arc::new(reduce_fn(
                |cluster: u64, candidates: Vec<(f64, u64, String)>, out: &mut ReduceOutput| {
                    let best = candidates
                        .into_iter()
                        .max_by(|a, b| {
                            a.0.partial_cmp(&b.0)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then(b.1.cmp(&a.1))
                        })
                        .expect("non-empty cluster");
                    out.emit_t(&cluster, &best.1);
                },
            )),
        );
        let stats = env.mr.run(&conf).map_err(|e| e.to_string())?;
        let (checksum, records) = mr_output_checksum(env, &output)?;
        Ok(BenchOutput::mapred(start.elapsed(), checksum, records, &[stats]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let v = vec![(1u64, 3u32), (5, 4)];
        let n = vector_norm(&v);
        assert!((cosine(&v, n, &v, n) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_disjoint_vectors_is_zero() {
        let a = vec![(1u64, 3u32)];
        let b = vec![(2u64, 4u32)];
        assert_eq!(cosine(&a, vector_norm(&a), &b, vector_norm(&b)), 0.0);
    }

    #[test]
    fn cosine_handles_zero_norm() {
        let a: Vec<(u64, u32)> = vec![];
        let b = vec![(1u64, 5u32)];
        assert_eq!(cosine(&a, vector_norm(&a), &b, vector_norm(&b)), 0.0);
    }

    #[test]
    fn assign_picks_most_similar_centroid() {
        let c0 = Centroid {
            movie: 0,
            vector: vec![(1, 5)],
            norm: vector_norm(&[(1, 5)]),
        };
        let c1 = Centroid {
            movie: 1,
            vector: vec![(2, 5)],
            norm: vector_norm(&[(2, 5)]),
        };
        let (c, sim) = assign(&[(2, 4)], &[c0, c1]);
        assert_eq!(c, 1);
        assert!(sim > 0.99);
    }

    #[test]
    fn parse_vector_sorts_and_dedups_users() {
        let (movie, v) = parse_vector("7:5_3,2_4,5_1").unwrap();
        assert_eq!(movie, 7);
        assert_eq!(v, vec![(2, 4), (5, 3)]);
    }
}
