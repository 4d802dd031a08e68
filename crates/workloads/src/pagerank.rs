//! PageRank (§4, Alg. 2) — the multi-phase + in-memory benchmark
//! (13.6x in Table 2).
//!
//! * HAMR: a **chain of jobs on one cluster** with M3R-style
//!   partition stability: each page's in-link list is built once, at
//!   the page's home, and stays there. Every node holds what an
//!   in-edge from each page carries, `rank / deg`, in one fixed-width
//!   column, `pr/c`, with one slot per page that has out-links: its
//!   index in the sorted set of those pages, `pr/p`. Iteration 0 ships
//!   every edge once, keyed by its destination:
//!   - `ParseMap` emits `(dst, src)` to `InLinkRed` and `(src, 1)`,
//!     sum-combined, to `DegreeRed`;
//!   - `DegreeRed` (a sum) sends `InLinkRed` a marker for each page it
//!     counted and `DegreePack` its `(page, degree)`s; `DegreePack`
//!     keeps its node's degrees under `pr/d` as one page-sorted
//!     `(page delta, degree)` blob and broadcasts it;
//!   - `DegreeGather` merges every node's blob into `pr/p` and the
//!     first `pr/c`, `UNIT / deg` while every rank is 1.0;
//!   - `InLinkRed` folds each in-link into its page's packed varint
//!     list. It fires only once `DegreeGather` has written both
//!     columns on its node (an in-edge from the gather, which emits
//!     nothing, orders it), stores the list under `pr/i` as its
//!     sources' slots, sums their `pr/c` slots and settles the page's
//!     first rank.
//!
//!   Every later iteration is two chained jobs:
//!   - **rank-ship** (`RankShip → RankGather`, Broadcast): each node
//!     packs `rank / deg` of its pages into one delta-varint blob, and
//!     every node merges every blob into its `pr/c`, one put — the
//!     frontier that must travel is O(pages), not O(edges);
//!   - **update** (`RAdjSrc → PRUpdateMap`, Local): `RAdjSrc` emits
//!     each in-link list of its node, one record per page, and
//!     `PRUpdateMap` sums the list's slots of `pr/c`, one lookup per
//!     page, and settles the page. The lists are iteration-*invariant*,
//!     so the loader is annotated `resident("pr/radj")`: iteration 1
//!     fills the partition-resident frame cache and iterations ≥2 are
//!     served pinned frames instead of a KV scan. Either way no edge
//!     crosses the fabric: an update ships only its convergence tail.
//!
//!   No flowlet is a `Reduce`: every reducer is a partial reduce that
//!   folds each value as it arrives, so the setup job holds one degree
//!   and one packed list per page, not every record until the barrier.
//! * Hadoop: an adjacency-build job, then **two chained jobs per
//!   iteration** (contributions, then rank update), every link paying
//!   job startup, a sort/spill/shuffle, and a DFS round trip.
//!
//! Ranks are fixed-point (units of 1e-6) so integer arithmetic makes
//! both engines' results identical regardless of reduction order:
//! `new = 0.15 + 0.85 * Σ contrib`, `contrib = rank / outdegree`. The
//! `pr/c` column holds that quotient, the integer the baseline's join
//! computes, so both engines sum the same contributions. The cached
//! frames carry in-link lists, never ranks, so the served iterations
//! compute bit-identical results to a cache-off run.

use crate::env::{scaled, BenchOutput, Env, IterStats};
use crate::gen::webgraph::{link_lines, zipfian_links};
use crate::{pair_checksum, Benchmark};
use bytes::Bytes;
use hamr_codec::slots::Accs;
use hamr_codec::{read_entry, Codec};
use hamr_core::{
    typed, Emitter, Exchange, JobBuilder, JobGraph, JobResult, MapFn, PartialReduceFn, TaskContext,
};
use hamr_kvstore::Shard;
use hamr_mapred::{line_map_fn, map_fn, reduce_fn, InputFormat, JobConf, ReduceOutput};
use std::any::Any;
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

/// A page's in-link list (its sources' slots, varints, packed), at the
/// page's home shard.
const IN_LINKS: &[u8; 4] = b"pr/i";
/// Authoritative rank, at the page's home shard.
const RANK: &[u8; 4] = b"pr/r";
/// One entry per node: the `(page delta, degree)` blob of the pages
/// with out-links the node is home to, page-sorted.
const DEGREE: &[u8; 4] = b"pr/d";
/// One entry per node: every page with out-links, sorted, as
/// fixed-width words. A page's index here is its slot.
const PAGES: &[u8; 4] = b"pr/p";
/// One entry per node: what an in-edge from each page carries this
/// iteration, its rank over its out-degree, as fixed-width words by
/// slot; the rank-ship job rewrites it.
const COPY: &[u8; 4] = b"pr/c";

/// What `InLinkRed` folds: `Some(src)`, an in-link's source as the
/// `u64` `ParseMap` emits, or `None`, the empty value `DegreeRed` sends
/// for each page it counted (the page has out-links, so it is ranked
/// even with no in-link). No `u64` encodes to an empty value, so the
/// marker cannot collide with a page id. It is never stored: a page's
/// list holds real sources only.
struct InLink(Option<u64>);

impl Codec for InLink {
    fn encode(&self, buf: &mut Vec<u8>) {
        if let Some(src) = self.0 {
            src.encode(buf);
        }
    }

    /// `input` is the whole value, so an empty one is the marker.
    fn decode(input: &mut &[u8]) -> Result<Self, hamr_codec::CodecError> {
        if input.is_empty() {
            return Ok(InLink(None));
        }
        u64::decode(input).map(|src| InLink(Some(src)))
    }
}

/// `prefix` + `page`'s encoding: the key of a page's in-links or rank.
/// Built on the stack, so a lookup and a put allocate nothing for
/// their key.
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

/// Put `value` under `prefix` + `page`, key and value encoded on the
/// stack.
fn put_u64(kv: &Shard, prefix: &[u8; 4], page: u64, value: u64) {
    let mut varint = [0; 10];
    let len = hamr_codec::write_varint_into(value, &mut varint);
    kv.put(PageKey::new(prefix, page).as_bytes(), &varint[..len]);
}

/// The `u64` stored under `prefix` + `page`, read in place.
fn u64_at(kv: &Shard, prefix: &[u8; 4], page: u64) -> Option<u64> {
    let key = PageKey::new(prefix, page);
    kv.get_with(key.as_bytes(), |v| u64::from_bytes(v).expect("a u64 value"))
}

/// The varints of a packed list.
fn varints(mut list: &[u8]) -> impl Iterator<Item = u64> + '_ {
    std::iter::from_fn(move || {
        (!list.is_empty()).then(|| hamr_codec::read_varint(&mut list).expect("a packed varint"))
    })
}

/// Pack page-sorted `(page, value)` pairs as `(page delta, value)`
/// varints: a degree or rank-ship blob.
fn pack(pairs: impl IntoIterator<Item = (u64, u64)>) -> Vec<u8> {
    let (mut blob, mut prev) = (Vec::new(), 0);
    for (page, value) in pairs {
        hamr_codec::write_varint(page - prev, &mut blob);
        hamr_codec::write_varint(value, &mut blob);
        prev = page;
    }
    blob
}

/// The `(page, value)` pairs of a blob [`pack`] made.
fn unpack(blob: &[u8]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let (mut fields, mut page) = (varints(blob), 0);
    std::iter::from_fn(move || {
        page += fields.next()?;
        Some((page, fields.next().expect("a blob's value")))
    })
}

/// The pairs of page-sorted blobs whose pages are disjoint, merged
/// into one page-sorted run.
fn merge(blobs: &[Bytes]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let mut heads: Vec<_> = blobs.iter().map(|blob| unpack(blob).peekable()).collect();
    std::iter::from_fn(move || {
        let (_, head) = heads
            .iter_mut()
            .filter_map(|head| Some((head.peek()?.0, head)))
            .min_by_key(|&(page, _)| page)?;
        head.next()
    })
}

/// How many pairs a blob [`pack`] made holds: each varint has one byte
/// below 0x80, its last.
fn pairs_in(blob: &[u8]) -> usize {
    blob.iter().filter(|&&byte| byte < 0x80).count() / 2
}

/// Word `i` of a fixed-width column.
fn word(column: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(column[8 * i..8 * i + 8].try_into().expect("8 bytes"))
}

/// `page`'s slot: where it is in `pages`, the sorted `pr/p` column.
fn slot_of(pages: &[u8], page: u64) -> usize {
    let n = pages.len() / 8;
    let (mut lo, mut hi) = (0, n);
    if n > 0 {
        // The pages are distinct and sorted, so the one in slot i is at
        // least i above the first and n - 1 - i below the last: dense
        // ids pin the slot before the search probes.
        let (first, last) = (word(pages, 0), word(pages, n - 1));
        lo = (n as u64 - 1).saturating_sub(last.saturating_sub(page)) as usize;
        hi = page.saturating_sub(first).min(n as u64 - 1) as usize + 1;
    }
    while lo < hi {
        let mid = (lo + hi) / 2;
        if word(pages, mid) < page {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    assert!(
        lo < pages.len() / 8 && word(pages, lo) == page,
        "page {page} has no slot: it has no out-link"
    );
    lo
}

/// What a page's in-links give it this iteration: the sum of their
/// sources' `pr/c` slots on this node, one lookup. `slots` is the
/// page's packed in-link list.
fn in_link_sum(ctx: &TaskContext, slots: &[u8]) -> u64 {
    ctx.kv
        .get_with(COPY, |copies| {
            varints(slots).map(|slot| word(copies, slot as usize)).sum()
        })
        .expect("iteration 0 puts the pr/c column")
}

/// Append an in-link's source to a packed in-link list; the marker
/// adds nothing.
fn push_in_link(mut links: Vec<u8>, InLink(src): InLink) -> Vec<u8> {
    if let Some(src) = src {
        hamr_codec::write_varint(src, &mut links);
    }
    links
}

/// Settle `page` on the `sum` of its contributions: put its damped rank
/// under `pr/r` and emit how far it moved from its last rank (1.0 when
/// it had none), for the convergence tail.
fn settle(ctx: &TaskContext, page: u64, sum: u64, out: &mut Emitter) {
    let new = damped(sum);
    let old = u64_at(&ctx.kv, RANK, page).unwrap_or(UNIT);
    put_u64(&ctx.kv, RANK, page, new);
    out.emit_t(0, &0u64, &new.abs_diff(old));
}

/// A partial reduce that holds every blob sent to it and hands them to
/// `finish` together. Senders key every blob 0, so a node's blobs sit
/// in one table and one finish task reads them all: the only writer of
/// what `finish` puts.
fn blob_gather(
    finish: impl Fn(&TaskContext, Vec<Bytes>, &mut Emitter) + Send + Sync + 'static,
) -> impl PartialReduceFn {
    typed::partial_fn::<u64, Bytes, Vec<Bytes>, _, _, _>(
        |blob| vec![blob],
        |mut blobs, blob| {
            blobs.push(blob);
            blobs
        },
        move |ctx, _: u64, blobs, out: &mut Emitter| finish(ctx, blobs, out),
    )
}

/// Sums each page's out-degree, like `typed::sum_reducer`, but
/// finishes a stripe at a time: it sends `InLinkRed` the [`InLink`]
/// marker for each page (port 1) and `DegreePack` the stripe's degrees
/// as one blob (port 0), so a node's degrees reach its pack in a few
/// records, not one per page.
struct DegreeRed;

/// A `DegreeRed` stripe's table: each page's degree so far.
fn degrees(table: &mut Box<dyn Any + Send>) -> &mut Accs<u64> {
    table.downcast_mut().expect("a degree table")
}

impl PartialReduceFn for DegreeRed {
    fn table(&self) -> Box<dyn Any + Send> {
        Box::new(Accs::<u64>::default())
    }

    fn fold(&self, table: &mut Box<dyn Any + Send>, hash: u64, page: &[u8], n: &[u8]) {
        let n = u64::from_bytes(n).expect("an out-link count");
        degrees(table).fold(hash, page, |deg| deg.unwrap_or(0) + n);
    }

    fn is_empty(&self, table: &Box<dyn Any + Send>) -> bool {
        table
            .downcast_ref::<Accs<u64>>()
            .is_some_and(Accs::is_empty)
    }

    fn finish(&self, _ctx: &TaskContext, mut table: Box<dyn Any + Send>, out: &mut Emitter) {
        let mut counted = Vec::new();
        degrees(&mut table).drain(usize::MAX, |page, deg| {
            out.emit(1, page, &[]);
            counted.push((u64::from_bytes(page).expect("page key"), deg));
        });
        counted.sort_unstable();
        out.emit_t(0, &0u64, &Bytes::from(pack(counted)));
    }
}

/// The update: each record is a page and its packed in-link list,
/// read in place from the frame (no decode into a `Vec`).
struct PRUpdateMap;

impl MapFn for PRUpdateMap {
    fn map(&self, ctx: &TaskContext, key: &[u8], slots: &[u8], out: &mut Emitter) {
        let page = u64::from_bytes(key).expect("page key");
        settle(ctx, page, in_link_sum(ctx, slots), out);
    }
}

pub struct PageRank {
    pub pages: usize,
    pub max_out_links: usize,
    pub iterations: usize,
    /// Serve the invariant in-link lists from the partition-resident
    /// cache on iterations ≥2 (false = ablation: every update job
    /// re-scans its node's KV store for them).
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
    /// Write `links`, `(src, dst)` pairs, as the input both engines
    /// read: what [`Benchmark::seed`] does with a generated web graph.
    pub fn seed_links(env: &Env, links: &[(u64, u64)]) -> Result<(), String> {
        env.seed_text(INPUT, &link_lines(links))
    }

    /// Convergence tail shared by every iteration's final flowlet:
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

    /// Iteration 0: build each page's in-link list, every node's slot
    /// columns and each node's degrees while computing the first rank
    /// update (Alg. 2 lines 3–5). Every edge crosses the fabric once,
    /// keyed by destination; the degrees cross it once per node, packed.
    fn setup_job(&self) -> Result<JobGraph, String> {
        let mut job = JobBuilder::new("pagerank-iter0");
        let loader = job.add_loader("EdgeFileLoader", typed::dfs_line_loader(INPUT));
        let parse = job.add_map(
            "ParseMap",
            typed::map_fn(|_off: u64, line: String, out: &mut Emitter| {
                if let Some((src, dst)) = crate::gen::rmat::parse_edge_line(&line) {
                    out.emit_t(0, &dst, &src);
                    out.emit_t(1, &src, &1u64);
                }
            }),
        );
        // The in-link list grows by each source's varint as records
        // arrive.
        let in_links = job.add_partial_reduce(
            "InLinkRed",
            typed::partial_fn::<u64, InLink, Vec<u8>, _, _, _>(
                |src| push_in_link(Vec::new(), src),
                push_in_link,
                // Runs after `DegreeGather` has put `pr/p` and `pr/c` on
                // this node: its edge into this flowlet is one of those
                // a fire waits for.
                |ctx, page: u64, sources, out: &mut Emitter| {
                    // The page, or each of its sources, has out-links,
                    // so the column is there.
                    let slots = ctx
                        .kv
                        .get_with(PAGES, |pages| {
                            let mut slots = Vec::with_capacity(sources.len());
                            for src in varints(&sources) {
                                hamr_codec::write_varint(slot_of(pages, src) as u64, &mut slots);
                            }
                            slots
                        })
                        .expect("DegreeGather puts the pr/p column");
                    ctx.kv.put(PageKey::new(IN_LINKS, page).as_bytes(), &slots);
                    settle(ctx, page, in_link_sum(ctx, &slots), out);
                },
            ),
        );
        let degree = job.add_partial_reduce("DegreeRed", DegreeRed);
        let pack_degrees = job.add_partial_reduce(
            "DegreePack",
            blob_gather(|ctx, stripes, out| {
                let blob = pack(merge(&stripes));
                ctx.kv.put(DEGREE, &blob);
                out.emit_t(0, &0u64, &Bytes::from(blob));
            }),
        );
        // A page's degree is counted at its home alone, so the nodes'
        // blobs, merged, list every page with out-links once: slot i is
        // the i-th.
        let gather = job.add_partial_reduce(
            "DegreeGather",
            blob_gather(|ctx, blobs, _out| {
                let n: usize = blobs.iter().map(|blob| pairs_in(blob)).sum();
                let (mut pages, mut copies) =
                    (Vec::with_capacity(8 * n), Vec::with_capacity(8 * n));
                for (page, deg) in merge(&blobs) {
                    pages.extend_from_slice(&page.to_le_bytes());
                    copies.extend_from_slice(&(UNIT / deg).to_le_bytes());
                }
                ctx.kv.put(PAGES, pages);
                ctx.kv.put(COPY, copies);
            }),
        );
        job.connect(loader, parse, Exchange::Local);
        job.connect(parse, in_links, Exchange::Hash);
        // Out-degrees count associatively, so the skew combiner folds
        // them before the shuffle.
        job.connect_combined(parse, degree, Exchange::Hash, typed::sum_combiner());
        job.connect(degree, pack_degrees, Exchange::Local);
        job.connect(degree, in_links, Exchange::Local);
        job.connect(pack_degrees, gather, Exchange::Broadcast);
        // Carries nothing: it holds `InLinkRed`'s fire until the gather
        // on its node has completed.
        job.connect(gather, in_links, Exchange::Local);
        Self::add_convergence_tail(&mut job, in_links);
        job.build().map_err(|e| e.to_string())
    }

    /// Iterations ≥1, job A — **rank-ship**: every node packs `rank /
    /// deg` of each page it is home to, in `pr/d`'s order, into one
    /// delta-varint blob and broadcasts it; `RankGather` merges the
    /// blobs into the node's `pr/c` column. This is the only
    /// per-iteration traffic: O(pages) of frontier, not O(edges) of
    /// contributions. A page with no out-link has no slot and is not
    /// shipped: no in-link names it.
    fn rank_ship_job(&self, iter: usize) -> Result<JobGraph, String> {
        let mut job = JobBuilder::new(format!("pagerank-ship{iter}"));
        let ship = job.add_loader(
            "RankShip",
            typed::gen_loader(
                |_ctx| 1,
                |ctx, _split, out: &mut Emitter| {
                    // A copy: the ranks are looked up while it is read.
                    let Some(degrees) = ctx.kv.get(DEGREE) else {
                        return;
                    };
                    let blob = pack(unpack(&degrees).map(|(page, deg)| {
                        let rank = u64_at(&ctx.kv, RANK, page).expect("iteration 0 ranks it");
                        (page, rank / deg)
                    }));
                    out.emit_t(0, &0u64, &Bytes::from(blob));
                },
            ),
        );
        // Every home ships every page it counted a degree for, so the
        // blobs, merged, are in slot order.
        let gather = job.add_partial_reduce(
            "RankGather",
            blob_gather(|ctx, blobs, _out| {
                let copies = ctx
                    .kv
                    .get_with(PAGES, |pages| {
                        let mut copies = Vec::with_capacity(pages.len());
                        for (slot, (page, contrib)) in merge(&blobs).enumerate() {
                            assert_eq!(word(pages, slot), page, "slot {slot}");
                            copies.extend_from_slice(&contrib.to_le_bytes());
                        }
                        assert_eq!(
                            copies.len(),
                            pages.len(),
                            "a page with out-links shipped no rank"
                        );
                        copies
                    })
                    .expect("iteration 0 puts the pr/p column");
                ctx.kv.put(COPY, copies);
            }),
        );
        job.connect(ship, gather, Exchange::Broadcast);
        job.build().map_err(|e| e.to_string())
    }

    /// Iterations ≥1, job B — **update**: `RAdjSrc` emits each page of
    /// its node with the page's packed in-link list, over a `Local`
    /// edge to `PRUpdateMap`, which sums the list's slots of this
    /// node's `pr/c` (the rank-ship job's output) and settles the page.
    /// The lists are iteration-invariant, so the loader is
    /// `resident("pr/radj")`: the first update fills the cache, later
    /// updates are served its pinned frames instead of scanning the KV
    /// store. The ranks stay in `pr/c`, so served iterations stay
    /// bit-identical to recomputed ones.
    fn update_job(&self, iter: usize, fp: u64) -> Result<JobGraph, String> {
        let mut job = JobBuilder::new(format!("pagerank-update{iter}"));
        let radj = job.add_loader(
            "RAdjSrc",
            typed::gen_loader(
                |_ctx| 1,
                |ctx, _split, out: &mut Emitter| {
                    ctx.kv.for_each(|k, v| {
                        if let Some(page) = k.strip_prefix(IN_LINKS) {
                            out.emit(0, page, v);
                        }
                    });
                },
            ),
        );
        if self.resident {
            job.resident(radj, "pr/radj", fp);
        }
        let update = job.add_map("PRUpdateMap", PRUpdateMap);
        job.connect(radj, update, Exchange::Local);
        Self::add_convergence_tail(&mut job, update);
        job.build().map_err(|e| e.to_string())
    }

    /// The jobs of link `iter` of the HAMR chain on `env`'s cluster:
    /// the setup job alone, then a rank-ship and an update job per
    /// later iteration.
    pub fn iteration_jobs(&self, env: &Env, iter: usize) -> Result<Vec<JobGraph>, String> {
        Ok(if iter == 0 {
            vec![self.setup_job()?]
        } else {
            let fp = env.hamr.fingerprint(INPUT);
            vec![self.rank_ship_job(iter)?, self.update_job(iter, fp)?]
        })
    }

    /// Run link `iter` of the HAMR chain on `env`'s cluster, its
    /// [`iteration_jobs`](Self::iteration_jobs) in order. Cross-job
    /// state flows through the cluster's KV store and resident cache,
    /// so the links run in order from 0, after
    /// `env.reset_namespace("pr/")` — which is all `run_hamr` does,
    /// besides its checksum. A test that measures one iteration runs
    /// the links itself.
    pub fn run_hamr_iteration(&self, env: &Env, iter: usize) -> Result<Vec<JobResult>, String> {
        self.iteration_jobs(env, iter)?
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
        Self::seed_links(env, &links)
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
            for prefix in [IN_LINKS, RANK] {
                let want = [&prefix[..], &page.to_bytes()].concat();
                assert_eq!(PageKey::new(prefix, page).as_bytes(), want);
            }
        }
    }

    #[test]
    fn kv_key_prefixes_distinct_and_namespaced() {
        let prefixes = [IN_LINKS, RANK, DEGREE, PAGES, COPY];
        for (i, prefix) in prefixes.iter().enumerate() {
            assert!(prefix.starts_with(b"pr/"));
            assert!(prefixes[i + 1..].iter().all(|other| other != prefix));
        }
    }

    #[test]
    fn a_blob_unpacks_to_the_pairs_it_packed() {
        let pairs = vec![(0, 7), (1, 0), (300, 1), (1 << 40, u64::MAX), (u64::MAX, 2)];
        let blob = pack(pairs.iter().copied());
        assert_eq!(unpack(&blob).collect::<Vec<_>>(), pairs);
        assert_eq!(unpack(&pack([])).count(), 0);
    }

    #[test]
    fn a_slot_is_the_index_in_the_sorted_pages() {
        let sparse = vec![3u64, 9, 10, 1 << 33, u64::MAX];
        let dense: Vec<u64> = (0..100).chain(102..150).collect();
        for pages in [sparse, dense, vec![7]] {
            let column: Vec<u8> = pages.iter().flat_map(|p| p.to_le_bytes()).collect();
            for (slot, &page) in pages.iter().enumerate() {
                assert_eq!(slot_of(&column, page), slot);
                assert_eq!(word(&column, slot), page);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no slot")]
    fn a_page_without_out_links_has_no_slot() {
        let column: Vec<u8> = [3u64, 9].iter().flat_map(|p| p.to_le_bytes()).collect();
        for page in [0, 4, 10, u64::MAX] {
            let missing = std::panic::catch_unwind(|| slot_of(&column, page));
            assert!(missing.is_err(), "page {page}");
        }
        slot_of(&[], 4);
    }
}
