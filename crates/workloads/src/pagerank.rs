//! PageRank (§4, Alg. 2) — the multi-phase + in-memory benchmark
//! (13.6x in Table 2).
//!
//! * HAMR: a **chain of jobs on one cluster** with M3R-style
//!   partition residency. Iteration 0 (`EdgeFileLoader → HashJoinRed
//!   → MergeRed`) builds each page's adjacency list into the
//!   node-local slice of the distributed KV store and computes the
//!   first update. Every later iteration is two chained jobs:
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
//!
//!   Only `HashJoinRed` is a `Reduce`: it stores a page's whole
//!   adjacency list. `MergeRed` and `PRUpdateRed` are sums, so they are
//!   partial reduces that fold each value as it arrives and hold one
//!   accumulator per page, not every contribution or in-edge until the
//!   barrier. `PRUpdateRed`'s fold is the join: each in-edge reads its
//!   src's rank from the node's `pr/c` copy, which the rank-ship job
//!   wrote and nothing in the update job writes.
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
use hamr_codec::{read_entry, Codec};
use hamr_core::typed::{self, Values};
use hamr_core::{Emitter, Exchange, JobBuilder, JobGraph, JobResult, TaskContext};
use hamr_kvstore::Shard;
use hamr_mapred::{line_map_fn, map_fn, reduce_fn, InputFormat, JobConf, ReduceOutput};
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
// isolates reruns without touching other tenants. The resident cache
// tag `pr/radj` shares the prefix so a namespace reset drops the
// pinned frames too.

/// Adjacency, at the src's home shard.
const ADJ: &[u8; 4] = b"pr/a";
/// Authoritative rank, at the page's home shard.
const RANK: &[u8; 4] = b"pr/r";
/// The per-node rank copy the rank-ship job refreshes every iteration.
const COPY: &[u8; 4] = b"pr/c";

/// `prefix` + `page`'s encoding: the key of a page's adjacency, rank or
/// rank copy. Built on the stack, so a fold that reads one rank per
/// in-edge and a put allocate nothing for their key.
struct PageKey {
    bytes: [u8; 14],
    len: usize,
}

impl PageKey {
    fn new(prefix: &[u8; 4], page: u64) -> Self {
        let mut bytes = [0; 14];
        bytes[..4].copy_from_slice(prefix);
        let varint: &mut [u8; 10] = (&mut bytes[4..]).try_into().expect("10 bytes");
        let len = 4 + hamr_codec::write_varint_into(page, varint);
        PageKey { bytes, len }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Put `value` under `prefix` + `page`, the value encoded over `buf`:
/// the store copies key and value, so nothing is allocated per put
/// once `buf` has room.
fn put_page(kv: &Shard, buf: &mut Vec<u8>, prefix: &[u8; 4], page: u64, value: &impl Codec) {
    buf.clear();
    value.encode(buf);
    kv.put(PageKey::new(prefix, page).as_bytes(), &buf[..]);
}

/// The fixed-point rank stored under `key`, or 1.0 for a page not yet
/// ranked; read in place.
fn rank_at(kv: &Shard, key: &[u8]) -> u64 {
    kv.get_with(key, |v| u64::from_bytes(v).expect("rank"))
        .unwrap_or(UNIT)
}

/// What an in-edge from `src` of out-degree `deg` gives its page this
/// iteration: `src`'s rank in this node's `pr/c` copy over `deg`. The
/// presence sentinel's `deg` of 0 gives nothing and reads nothing.
fn contribution(ctx: &TaskContext, (src, deg): (u64, u64)) -> u64 {
    if deg == 0 {
        return 0;
    }
    rank_at(&ctx.kv, PageKey::new(COPY, src).as_bytes()) / deg
}

/// Settle `page` on the `sum` of its contributions: put its damped rank
/// under `pr/r` (key and value encoded on the stack) and emit how far
/// it moved, for the convergence tail.
fn settle(ctx: &TaskContext, page: u64, sum: u64, out: &mut Emitter) {
    let new = damped(sum);
    let key = PageKey::new(RANK, page);
    let old = rank_at(&ctx.kv, key.as_bytes());
    let mut rank = [0; 10];
    let len = hamr_codec::write_varint_into(new, &mut rank);
    ctx.kv.put(key.as_bytes(), &rank[..len]);
    out.emit_t(0, &0u64, &new.abs_diff(old));
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
                let mut buf = Vec::with_capacity(10 * (dsts.len() + 1));
                put_page(&ctx.kv, &mut buf, ADJ, src, &dsts);
                let contrib = UNIT / dsts.len() as u64;
                for dst in &dsts {
                    out.emit_t(0, dst, &contrib);
                }
                // Ensure the src itself appears in the rank map.
                out.emit_t(0, &src, &0u64);
            }),
        );
        // A sum: each contribution folds into its page's accumulator as
        // it arrives, and only the sums wait for the barrier.
        let merge_red = job.add_partial_reduce(
            "MergeRed",
            typed::partial_fn::<u64, u64, u64, _, _, _>(|c| c, |sum, c| sum + c, settle),
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
                        if let Some(mut rest) = k.strip_prefix(RANK) {
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
                let (mut page, mut buf) = (0u64, Vec::with_capacity(24));
                while !input.is_empty() {
                    page += hamr_codec::read_varint(&mut input).expect("page delta");
                    let rank = hamr_codec::read_varint(&mut input).expect("rank");
                    put_page(&ctx.kv, &mut buf, COPY, page, &rank);
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
                        if let Some(mut rest) = k.strip_prefix(ADJ) {
                            let src = u64::decode(&mut rest).expect("adj key");
                            let dsts = Vec::<u64>::from_bytes(v).expect("adj value");
                            let deg = dsts.len() as u64;
                            for dst in &dsts {
                                out.emit_t(0, dst, &(src, deg));
                            }
                        } else if let Some(mut rest) = k.strip_prefix(RANK) {
                            // Presence sentinel: keep every known page
                            // in the rank map (deg 0 contributes
                            // nothing, mirroring the mapred marker).
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
        // A sum too, joined as it folds: each in-edge reads its src's
        // rank from this node's `pr/c` copy, which the rank-ship job
        // wrote and nothing in this job writes.
        let update = job.add_partial_reduce(
            "PRUpdateRed",
            typed::partial_ctx_fn::<u64, (u64, u64), u64, _, _, _>(
                contribution,
                |ctx, sum, edge| sum + contribution(ctx, edge),
                settle,
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

    /// Run link `iter` of the HAMR chain on `env`'s cluster: the setup
    /// job alone, then a rank-ship and an update job per later
    /// iteration. Cross-job state flows through the cluster's KV store
    /// and resident cache, so the links run in order from 0, after
    /// `env.reset_namespace("pr/")` — which is all `run_hamr` does,
    /// besides its checksum. A test that measures one iteration runs
    /// the links itself.
    pub fn run_hamr_iteration(&self, env: &Env, iter: usize) -> Result<Vec<JobResult>, String> {
        let batch = if iter == 0 {
            vec![self.setup_job()?]
        } else {
            let fp = env.hamr.fingerprint(INPUT);
            vec![self.rank_ship_job(iter)?, self.update_job(iter, fp)?]
        };
        batch
            .into_iter()
            .map(|graph| env.hamr.run(graph).map_err(|e| e.to_string()))
            .collect()
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

        let mut results = Vec::with_capacity(2 * self.iterations);
        let mut iters = Vec::with_capacity(self.iterations);
        for iter in 0..self.iterations {
            let began = Instant::now();
            results.extend(self.run_hamr_iteration(env, iter)?);
            iters.push(IterStats {
                elapsed: began.elapsed(),
            });
        }

        // Final ranks live in the KV store, distributed by page.
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for node in 0..env.params.nodes {
            env.hamr.kv().shard(node).for_each(|k, v| {
                if let Some(page) = k.strip_prefix(RANK) {
                    pairs.push((page.to_vec(), v.to_vec()));
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
            while let Some((k, v)) = read_entry(&mut input).map_err(|e| format!("{part}: {e}"))? {
                let (_, ranks) = <(u8, Vec<u64>)>::from_bytes(v).map_err(|e| e.to_string())?;
                pairs.push((k.to_vec(), ranks[0].to_bytes().to_vec()));
            }
        }
        let checksum = pair_checksum(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
        let records = pairs.len() as u64;
        Ok(BenchOutput::mapred(
            start.elapsed(),
            checksum,
            records,
            &jobs,
        ))
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
    fn a_page_key_is_its_prefix_then_the_page_encoded() {
        for page in [0, 1, 127, 128, 20_000, u64::MAX] {
            for prefix in [ADJ, RANK, COPY] {
                let want = [&prefix[..], &page.to_bytes()].concat();
                assert_eq!(PageKey::new(prefix, page).as_bytes(), want);
            }
        }
    }

    #[test]
    fn kv_key_prefixes_distinct_and_namespaced() {
        let [adj, rank, copy] = [ADJ, RANK, COPY].map(|p| PageKey::new(p, 5).as_bytes().to_vec());
        assert_ne!(adj, rank);
        assert_ne!(rank, copy);
        assert_ne!(adj, copy);
        for (key, prefix) in [(&adj, ADJ), (&rank, RANK), (&copy, COPY)] {
            assert!(key.starts_with(prefix) && prefix.starts_with(b"pr/"));
        }
    }
}
