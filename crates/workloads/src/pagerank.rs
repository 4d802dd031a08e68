//! PageRank (§4, Alg. 2) — the multi-phase + in-memory benchmark
//! (13.6x in Table 2).
//!
//! * HAMR: a **chain of jobs on one cluster** with M3R-style
//!   partition residency. Iteration 0 (`EdgeFileLoader → HashJoinRed`)
//!   builds each page's adjacency list into the node-local slice of
//!   the distributed KV store and computes the first update. Every
//!   later iteration is two chained jobs:
//!   - **rank-ship** (`RankShip → RankGather`, Broadcast): each node
//!     packs its rank shard into one delta-varint blob — the frontier
//!     that must travel is O(pages), not O(edges);
//!   - **update** (`RAdjSrc → PRUpdateRed`, Hash): the reverse
//!     adjacency `(dst, (src, deg))` is iteration-*invariant*, so the
//!     loader is annotated `resident("pr/radj")` — iteration 1 fills
//!     the partition-resident frame cache and iterations ≥2 are
//!     served pinned frames locally: no re-scan, no re-encode, no
//!     fabric ship. That collapses the per-iteration shuffle from
//!     O(edges) to the rank frontier.
//! * Hadoop: an adjacency-build job, then **two chained jobs per
//!   iteration** (contributions, then rank update), every link paying
//!   job startup, a sort/spill/shuffle, and a DFS round trip.
//!
//! Ranks are fixed-point (units of 1e-6) so integer arithmetic makes
//! both engines' results identical regardless of reduction order:
//! `new = 0.15 + 0.85 * Σ contrib`, `contrib = rank / outdegree`.
//! The cached frames carry `(src, deg)` pairs, never ranks, so the
//! served iterations compute bit-identical results to a cache-off run.

use crate::env::{scaled, BenchOutput, Env, IterStats};
use crate::gen::webgraph::{link_lines, zipfian_links};
use crate::{pair_checksum, Benchmark};
use bytes::Bytes;
use hamr_codec::Codec;
use hamr_core::typed::{self, Values};
use hamr_core::{Emitter, Exchange, JobBuilder, JobGraph};
use hamr_kvstore::Shard;
use hamr_mapred::{decode_kv, line_map_fn, map_fn, reduce_fn, InputFormat, JobConf, ReduceOutput};
use std::sync::Arc;
use std::time::Instant;

const INPUT: &str = "pagerank/edges.txt";

/// Fixed-point unit: rank 1.0 == 1_000_000.
const UNIT: u64 = 1_000_000;

/// Damped update on fixed-point contributions.
fn damped(sum: u64) -> u64 {
    150_000 + (sum * 85) / 100
}

// KV keys live under the `pr/` namespace so `reset_namespace("pr/")`
// isolates reruns without touching other tenants. `pr/a` = adjacency
// at the src's home shard, `pr/r` = authoritative rank at the page's
// home shard, `pr/c` = the per-node rank copy the rank-ship job
// refreshes every iteration. The resident cache tag `pr/radj` shares
// the prefix so a namespace reset drops the pinned frames too.
fn adj_key(page: u64) -> Bytes {
    Bytes::copy_from_slice(page_key(&mut Vec::new(), b"pr/a", page))
}

fn rank_key(page: u64) -> Bytes {
    Bytes::copy_from_slice(page_key(&mut Vec::new(), b"pr/r", page))
}

fn copy_key(page: u64) -> Bytes {
    Bytes::copy_from_slice(page_key(&mut Vec::new(), b"pr/c", page))
}

/// `prefix` + `page`'s encoding, written over `buf`: `PRUpdateRed`
/// reads every rank copy of a group through one buffer.
fn page_key<'b>(buf: &'b mut Vec<u8>, prefix: &[u8], page: u64) -> &'b [u8] {
    buf.clear();
    buf.extend_from_slice(prefix);
    page.encode(buf);
    buf
}

/// The fixed-point rank stored under `key`, or 1.0 for a page not yet
/// ranked; read in place.
fn rank_at(kv: &Shard, key: &[u8]) -> u64 {
    kv.get_with(key, |v| u64::from_bytes(v).expect("rank"))
        .unwrap_or(UNIT)
}

pub struct PageRank {
    pub pages: usize,
    pub max_out_links: usize,
    pub iterations: usize,
    /// Serve the invariant reverse adjacency from the partition-
    /// resident cache on iterations ≥2 (false = ablation: the same
    /// chain pays the full reverse-adjacency shuffle every iteration).
    pub resident: bool,
}

impl Default for PageRank {
    fn default() -> Self {
        // ~20 GB / 4096 ≈ 5 MB of edge lines.
        PageRank {
            pages: 20_000,
            max_out_links: 16,
            iterations: 4,
            resident: true,
        }
    }
}

impl PageRank {
    /// Convergence tail shared by every iteration's final reduce:
    /// `from → ContMap → DiffSum` (the captured output is the total
    /// rank movement this iteration).
    fn add_convergence_tail(job: &mut JobBuilder, from: usize) {
        let cont_map = job.add_map(
            "ContMap",
            typed::map_fn(|k: u64, diff: u64, out: &mut Emitter| out.emit_t(0, &k, &diff)),
        );
        let diff_sum = job.add_partial_reduce("DiffSum", typed::sum_reducer::<u64>());
        job.connect(from, cont_map, Exchange::Local);
        job.connect_combined(cont_map, diff_sum, Exchange::Hash, typed::sum_combiner());
        job.capture_output(diff_sum);
    }

    /// Iteration 0: build the adjacency partition in memory while
    /// computing the first rank update (Alg. 2 lines 3–5).
    fn setup_job(&self) -> Result<JobGraph, String> {
        let mut job = JobBuilder::new("pagerank-iter0");
        let loader = job.add_loader("EdgeFileLoader", typed::dfs_line_loader(INPUT));
        let parse = job.add_map(
            "ParseMap",
            typed::map_fn(|_off: u64, line: String, out: &mut Emitter| {
                if let Some((src, dst)) = crate::gen::rmat::parse_edge_line(&line) {
                    out.emit_t(0, &src, &dst);
                }
            }),
        );
        let hash_join = job.add_reduce(
            "HashJoinRed",
            typed::reduce_ctx_fn(|ctx, src: u64, dsts: Values<u64>, out: &mut Emitter| {
                let dsts: Vec<u64> = dsts.collect();
                // Save the dst list into memory (the KV store).
                ctx.kv.put(adj_key(src), dsts.to_bytes());
                let contrib = UNIT / dsts.len() as u64;
                for dst in &dsts {
                    out.emit_t(0, dst, &contrib);
                }
                // Ensure the src itself appears in the rank map.
                out.emit_t(0, &src, &0u64);
            }),
        );
        let merge_red = job.add_reduce(
            "MergeRed",
            typed::reduce_ctx_fn(|ctx, page: u64, contribs: Values<u64>, out: &mut Emitter| {
                let new = damped(contribs.sum());
                let key = rank_key(page);
                let old = rank_at(&ctx.kv, &key);
                ctx.kv.put(key, new.to_bytes());
                out.emit_t(0, &0u64, &new.abs_diff(old));
            }),
        );
        job.connect(loader, parse, Exchange::Local);
        job.connect(parse, hash_join, Exchange::Hash);
        // Contributions to one page sum associatively, so the skew
        // combiner can fold them before the shuffle; the zipfian link
        // graph makes popular pages genuinely hot.
        job.connect_combined(hash_join, merge_red, Exchange::Hash, typed::sum_combiner());
        Self::add_convergence_tail(&mut job, merge_red);
        job.build().map_err(|e| e.to_string())
    }

    /// Iterations ≥1, job A — **rank-ship**: every node packs its
    /// authoritative `pr/r` shard into one sorted delta-varint blob
    /// and broadcasts it; `RankGather` unpacks the blobs into the
    /// node-local `pr/c` rank copy. This is the only per-iteration
    /// traffic once the reverse adjacency is resident: O(pages) of
    /// frontier, not O(edges) of contributions.
    fn rank_ship_job(&self, iter: usize) -> Result<JobGraph, String> {
        let mut job = JobBuilder::new(format!("pagerank-ship{iter}"));
        let ship = job.add_loader(
            "RankShip",
            typed::gen_loader(
                |_ctx| 1,
                |ctx, _split, out: &mut Emitter| {
                    let mut ranks: Vec<(u64, u64)> = Vec::new();
                    ctx.kv.for_each(|k, v| {
                        if k.starts_with(b"pr/r") {
                            let mut rest = &k[4..];
                            let page = u64::decode(&mut rest).expect("rank key");
                            ranks.push((page, u64::from_bytes(v).expect("rank")));
                        }
                    });
                    ranks.sort_unstable();
                    let mut blob = Vec::with_capacity(ranks.len() * 6);
                    let mut prev = 0u64;
                    for &(page, rank) in &ranks {
                        hamr_codec::write_varint(page - prev, &mut blob);
                        hamr_codec::write_varint(rank, &mut blob);
                        prev = page;
                    }
                    out.emit_t(0, &(ctx.node as u64), &Bytes::from(blob));
                },
            ),
        );
        let gather = job.add_map(
            "RankGather",
            typed::map_ctx_fn(|ctx, _from: u64, blob: Bytes, _out: &mut Emitter| {
                let mut input = &blob[..];
                let mut page = 0u64;
                while !input.is_empty() {
                    page += hamr_codec::read_varint(&mut input).expect("page delta");
                    let rank = hamr_codec::read_varint(&mut input).expect("rank");
                    ctx.kv.put(copy_key(page), rank.to_bytes());
                }
            }),
        );
        job.connect(ship, gather, Exchange::Broadcast);
        job.build().map_err(|e| e.to_string())
    }

    /// Iterations ≥1, job B — **update**: `RAdjSrc` emits the reverse
    /// adjacency `(dst, (src, deg))` plus a `(page, (MAX, 0))`
    /// presence sentinel per known page. Both are iteration-invariant,
    /// so the loader is `resident("pr/radj")`: the first update fills
    /// the cache (full shuffle), later updates are served pinned
    /// frames with no fabric traffic. `PRUpdateRed` joins against the
    /// `pr/c` rank copy — the only per-iteration input — so served
    /// iterations stay bit-identical to recomputed ones.
    fn update_job(&self, iter: usize, fp: u64) -> Result<JobGraph, String> {
        let mut job = JobBuilder::new(format!("pagerank-update{iter}"));
        let radj = job.add_loader(
            "RAdjSrc",
            typed::gen_loader(
                |_ctx| 1,
                |ctx, _split, out: &mut Emitter| {
                    ctx.kv.for_each(|k, v| {
                        if k.starts_with(b"pr/a") {
                            let mut rest = &k[4..];
                            let src = u64::decode(&mut rest).expect("adj key");
                            let dsts = Vec::<u64>::from_bytes(v).expect("adj value");
                            let deg = dsts.len() as u64;
                            for dst in &dsts {
                                out.emit_t(0, dst, &(src, deg));
                            }
                        } else if k.starts_with(b"pr/r") {
                            // Presence sentinel: keep every known page
                            // in the rank map (deg 0 contributes
                            // nothing, mirroring the mapred marker).
                            let mut rest = &k[4..];
                            let page = u64::decode(&mut rest).expect("rank key");
                            out.emit_t(0, &page, &(u64::MAX, 0u64));
                        }
                    });
                },
            ),
        );
        if self.resident {
            job.resident(radj, "pr/radj", fp);
        }
        let update = job.add_reduce(
            "PRUpdateRed",
            typed::reduce_ctx_fn(
                |ctx, page: u64, ins: Values<(u64, u64)>, out: &mut Emitter| {
                    let mut buf = Vec::with_capacity(16);
                    let mut sum = 0u64;
                    for (src, deg) in ins.filter(|&(_, deg)| deg > 0) {
                        sum += rank_at(&ctx.kv, page_key(&mut buf, b"pr/c", src)) / deg;
                    }
                    let new = damped(sum);
                    let key = rank_key(page);
                    let old = rank_at(&ctx.kv, &key);
                    ctx.kv.put(key, new.to_bytes());
                    out.emit_t(0, &0u64, &new.abs_diff(old));
                },
            ),
        );
        // No combiner: the values are (src, deg) references, not
        // summable contributions — and the cache captures the
        // post-combine frames anyway, so a combiner here would bake
        // rank values into the pinned partition.
        job.connect(radj, update, Exchange::Hash);
        Self::add_convergence_tail(&mut job, update);
        job.build().map_err(|e| e.to_string())
    }
}

impl Benchmark for PageRank {
    fn name(&self) -> &'static str {
        "PageRank"
    }

    fn seed(&self, env: &Env) -> Result<(), String> {
        let links = zipfian_links(
            scaled(self.pages, env.params.scale).max(2),
            self.max_out_links,
            env.params.seed.wrapping_add(6),
        );
        env.seed_text(INPUT, &link_lines(&links))
    }

    fn run_hamr(&self, env: &Env) -> Result<BenchOutput, String> {
        let start = Instant::now();
        // Namespaced rerun isolation: drop pr/ KV keys and the pr/
        // cache tags, leave other tenants' state alone.
        env.reset_namespace("pr/");
        let fp = env.hamr.fingerprint(INPUT);

        let mut results = Vec::with_capacity(2 * self.iterations);
        let mut iters = Vec::with_capacity(self.iterations);
        for iter in 0..self.iterations {
            // One chain link per iteration: the setup job alone, then
            // rank-ship + update pairs. Cross-job state flows through
            // the cluster's KV store and resident cache.
            let batch = if iter == 0 {
                vec![self.setup_job()?]
            } else {
                vec![self.rank_ship_job(iter)?, self.update_job(iter, fp)?]
            };
            let began = Instant::now();
            for graph in batch {
                results.push(env.hamr.run(graph).map_err(|e| e.to_string())?);
            }
            iters.push(IterStats {
                elapsed: began.elapsed(),
            });
        }

        // Final ranks live in the KV store, distributed by page.
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for node in 0..env.params.nodes {
            env.hamr.kv().shard(node).for_each(|k, v| {
                if k.starts_with(b"pr/r") {
                    pairs.push((k[4..].to_vec(), v.to_vec()));
                }
            });
        }
        let checksum = pair_checksum(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
        let records = pairs.len() as u64;
        Ok(BenchOutput {
            iters,
            ..BenchOutput::hamr(start.elapsed(), checksum, records, &results)
        })
    }

    fn run_mapred(&self, env: &Env) -> Result<BenchOutput, String> {
        let start = Instant::now();
        // Job 0: build the adjacency file. Values are tagged
        // (0 = adjacency, 1 = rank) so iteration jobs can join them.
        let adj_path = env.unique_path("pagerank/adj");
        let adj_job = JobConf::new(
            "pr-adjacency",
            vec![INPUT.to_string()],
            &adj_path,
            Arc::new(line_map_fn(|_off, line, out| {
                if let Some((src, dst)) = crate::gen::rmat::parse_edge_line(line) {
                    out.emit_t(&src, &dst);
                }
            })),
            Arc::new(reduce_fn(
                |src: u64, dsts: Vec<u64>, out: &mut ReduceOutput| {
                    out.emit_t(&src, &(0u8, dsts));
                },
            )),
        );
        let mut jobs = Vec::with_capacity(1 + 2 * self.iterations);
        jobs.push(env.mr.run(&adj_job).map_err(|e| e.to_string())?);

        let mut ranks_path: Option<String> = None;
        for iter in 0..self.iterations {
            // Job A: contributions (join adjacency with ranks by src).
            let contrib_path = env.unique_path(&format!("pagerank/contrib{iter}"));
            let mut inputs = env.dfs.list(&format!("{adj_path}/"));
            if let Some(rp) = &ranks_path {
                inputs.extend(env.dfs.list(&format!("{rp}/")));
            }
            let contrib_job = JobConf::new(
                "pr-contrib",
                inputs,
                &contrib_path,
                Arc::new(map_fn(|k: u64, v: (u8, Vec<u64>), out| out.emit_t(&k, &v))),
                Arc::new(reduce_fn(
                    |src: u64, records: Vec<(u8, Vec<u64>)>, out: &mut ReduceOutput| {
                        let mut adj: Option<&Vec<u64>> = None;
                        let mut rank: Option<u64> = None;
                        for (tag, payload) in &records {
                            match tag {
                                0 => adj = Some(payload),
                                _ => rank = payload.first().copied(),
                            }
                        }
                        if let Some(dsts) = adj {
                            let contrib = rank.unwrap_or(UNIT) / dsts.len() as u64;
                            for dst in dsts {
                                out.emit_t(dst, &contrib);
                            }
                        }
                        // Marker: keep src in the rank map (mirrors the
                        // HAMR emission rules exactly).
                        if adj.is_some() || rank.is_some() {
                            out.emit_t(&src, &0u64);
                        }
                    },
                )),
            )
            .with_input_format(InputFormat::KeyValue);
            jobs.push(env.mr.run(&contrib_job).map_err(|e| e.to_string())?);

            // Job B: rank update.
            let new_ranks = env.unique_path(&format!("pagerank/ranks{iter}"));
            let update_job = JobConf::new(
                "pr-update",
                env.dfs.list(&format!("{contrib_path}/")),
                &new_ranks,
                Arc::new(map_fn(|k: u64, v: u64, out| out.emit_t(&k, &v))),
                Arc::new(reduce_fn(
                    |page: u64, contribs: Vec<u64>, out: &mut ReduceOutput| {
                        let new = damped(contribs.iter().sum());
                        out.emit_t(&page, &(1u8, vec![new]));
                    },
                )),
            )
            .with_input_format(InputFormat::KeyValue);
            jobs.push(env.mr.run(&update_job).map_err(|e| e.to_string())?);
            ranks_path = Some(new_ranks);
        }

        // Collect final ranks (strip the join tag).
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let final_ranks = ranks_path.expect("at least one iteration");
        for part in env.dfs.list(&format!("{final_ranks}/")) {
            let raw = env.dfs.read_all(&part).map_err(|e| e.to_string())?;
            let mut input = raw.as_slice();
            while let Some((k, v)) = decode_kv(&mut input).map_err(|e| format!("{part}: {e}"))? {
                let (_, ranks) = <(u8, Vec<u64>)>::from_bytes(v).map_err(|e| e.to_string())?;
                pairs.push((k.to_vec(), ranks[0].to_bytes().to_vec()));
            }
        }
        let checksum = pair_checksum(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
        let records = pairs.len() as u64;
        Ok(BenchOutput::mapred(start.elapsed(), checksum, records, &jobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn damped_update_is_integer_exact() {
        assert_eq!(damped(0), 150_000);
        assert_eq!(damped(1_000_000), 150_000 + 850_000);
        // Order independence follows from integer addition; spot-check
        // the division is floored consistently.
        assert_eq!(damped(3), 150_000 + 2);
    }

    #[test]
    fn kv_key_prefixes_distinct_and_namespaced() {
        assert_ne!(adj_key(5), rank_key(5));
        assert_ne!(rank_key(5), copy_key(5));
        assert!(adj_key(5).starts_with(b"pr/a"));
        assert!(rank_key(5).starts_with(b"pr/r"));
        assert!(copy_key(5).starts_with(b"pr/c"));
    }
}
