//! K-Cliques (§4, Alg. 3): find all fully-connected vertex sets of
//! size K in an R-MAT graph (11.5x in Table 2).
//!
//! Every clique `{v1 < v2 < ... < vK}` is discovered exactly once via
//! the candidate chain `v1 → v2 → ... → vK`, where each extension
//! candidate comes from the adjacency of the previously added vertex
//! and is validated against *all* members at the candidate's owner
//! node.
//!
//! * HAMR: two jobs — a graph build into the distributed KV store
//!   (`KCliquesLoader → KCliquesGraphBuilder`), then one multi-phase
//!   job chaining `TwoCliquesGenerator → 3CliquesVerify → ... →
//!   KCliquesVerify`, entirely in memory. (This is the workload where
//!   the paper notes Hadoop runs out of memory on larger graphs while
//!   HAMR's shared per-node store does not.)
//! * Hadoop: an adjacency job plus K-1 chained verify jobs, each
//!   re-reading the adjacency file from the DFS and shuffling all
//!   in-flight cliques.

use crate::env::{scaled, BenchOutput, Env};
use crate::gen::rmat::{edge_lines, edges, parse_edge_line, RmatParams};
use crate::wordcount::mr_output_checksum;
use crate::{output_checksum, Benchmark};
use bytes::Bytes;
use hamr_codec::Codec;
use hamr_core::typed::{self, Values};
use hamr_core::{Emitter, Exchange, JobBuilder};
use hamr_mapred::{line_map_fn, map_fn, reduce_fn, InputFormat, JobConf, ReduceOutput};
use std::sync::Arc;
use std::time::Instant;

const INPUT: &str = "kcliques/edges.txt";

/// The graph lives in the KV store under `kc/`, so a rerun resets its
/// own namespace and leaves other tenants' state alone.
const NS: &str = "kc/";

fn graph_key(v: u64) -> Bytes {
    let mut k = NS.as_bytes().to_vec();
    v.encode(&mut k);
    k.into()
}

pub struct KCliques {
    /// Graph has `2^vertex_scale` vertices.
    pub vertex_scale: u32,
    pub edges: usize,
    /// Clique size to search for (the paper's K).
    pub k: usize,
}

impl Default for KCliques {
    fn default() -> Self {
        KCliques {
            vertex_scale: 8,
            edges: 4_000,
            k: 4,
        }
    }
}

impl Benchmark for KCliques {
    fn name(&self) -> &'static str {
        "KCliques"
    }

    fn seed(&self, env: &Env) -> Result<(), String> {
        let es = edges(
            self.vertex_scale,
            scaled(self.edges, env.params.scale),
            RmatParams::default(),
            env.params.seed.wrapping_add(7),
        );
        env.seed_text(INPUT, &edge_lines(&es))
    }

    fn run_hamr(&self, env: &Env) -> Result<BenchOutput, String> {
        assert!(self.k >= 3, "clique size must be at least 3");
        let start = Instant::now();
        env.reset_namespace(NS);

        // Job 1: stream relationships and build the graph in memory.
        let mut build = JobBuilder::new("kcliques-build");
        let loader = build.add_loader("KCliquesLoader", typed::dfs_line_loader(INPUT));
        let parse = build.add_map(
            "ParseMap",
            typed::map_fn(|_off: u64, line: String, out: &mut Emitter| {
                if let Some((a, b)) = parse_edge_line(&line) {
                    out.emit_t(0, &a, &b);
                    out.emit_t(0, &b, &a);
                }
            }),
        );
        let graph_builder = build.add_reduce(
            "KCliquesGraphBuilder",
            typed::reduce_ctx_fn(|ctx, v: u64, neighbors: Values<u64>, out: &mut Emitter| {
                let mut neighbors: Vec<u64> = neighbors.collect();
                neighbors.sort_unstable();
                neighbors.dedup();
                ctx.kv.put(graph_key(v), neighbors.to_bytes());
                out.output_t(&v, &(0u64)); // graph size marker (unused)
            }),
        );
        build.connect(loader, parse, Exchange::Local);
        build.connect(parse, graph_builder, Exchange::Hash);
        let built = env
            .hamr
            .run(build.build().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;

        // Job 2: generate 2-cliques and verify up the chain in memory.
        let mut search = JobBuilder::new("kcliques-search");
        let two_gen = search.add_loader(
            "TwoCliquesGenerator",
            typed::gen_loader(
                |_ctx| 1,
                |ctx, _split, out: &mut Emitter| {
                    ctx.kv.for_each(|k, v| {
                        if let Some(mut rest) = k.strip_prefix(NS.as_bytes()) {
                            let vertex = u64::decode(&mut rest).expect("graph key");
                            let neighbors = Vec::<u64>::from_bytes(v).expect("adjacency");
                            for &u in neighbors.iter().filter(|&&u| u > vertex) {
                                out.emit_t(0, &u, &vec![vertex]);
                            }
                        }
                    });
                },
            ),
        );
        // Verify stages for clique sizes 3..=k; stage for size s takes
        // (candidate, members of size s-1).
        let mut prev = two_gen;
        for size in 2..=self.k {
            let is_last = size == self.k;
            let verify = search.add_map(
                format!("{size}CliquesVerify"),
                typed::map_ctx_fn(
                    move |ctx, candidate: u64, members: Vec<u64>, out: &mut Emitter| {
                        let Some(adj_raw) = ctx.kv.get(&graph_key(candidate)) else {
                            return;
                        };
                        let adj = Vec::<u64>::from_bytes(&adj_raw).expect("adjacency");
                        if !members.iter().all(|m| adj.binary_search(m).is_ok()) {
                            return;
                        }
                        let mut clique = members;
                        clique.push(candidate);
                        if is_last {
                            out.output_t(&clique, &1u64);
                        } else {
                            for &w in adj.iter().filter(|&&w| w > candidate) {
                                out.emit_t(0, &w, &clique);
                            }
                        }
                    },
                ),
            );
            search.connect(prev, verify, Exchange::Hash);
            prev = verify;
        }
        // Stage `s` produced s-cliques from (s-1)-member candidates;
        // the final stage captured the K-cliques.
        search.capture_output(prev);
        let result = env
            .hamr
            .run(search.build().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let (checksum, records) = output_checksum(result.output(prev));
        Ok(BenchOutput::hamr(start.elapsed(), checksum, records, &[built, result]))
    }

    fn run_mapred(&self, env: &Env) -> Result<BenchOutput, String> {
        assert!(self.k >= 3, "clique size must be at least 3");
        let start = Instant::now();
        // Job 0: adjacency lists (tag 0), symmetric and deduplicated.
        let adj_path = env.unique_path("kcliques/adj");
        let adj_job = JobConf::new(
            "kc-adjacency",
            vec![INPUT.to_string()],
            &adj_path,
            Arc::new(line_map_fn(|_off, line, out| {
                if let Some((a, b)) = parse_edge_line(line) {
                    out.emit_t(&a, &b);
                    out.emit_t(&b, &a);
                }
            })),
            Arc::new(reduce_fn(
                |v: u64, mut ns: Vec<u64>, out: &mut ReduceOutput| {
                    ns.sort_unstable();
                    ns.dedup();
                    out.emit_t(&v, &(0u8, ns));
                },
            )),
        );
        let mut jobs = vec![env.mr.run(&adj_job).map_err(|e| e.to_string())?];

        // Job for size 3: derive 2-cliques locally from adjacency
        // (symmetry: requests to u are exactly {v ∈ adj(u) | v < u})
        // and emit 3-clique candidates.
        let mut requests_path = env.unique_path("kcliques/req3");
        {
            let job = JobConf::new(
                "kc-2cliques",
                env.dfs.list(&format!("{adj_path}/")),
                &requests_path,
                Arc::new(map_fn(|v: u64, t: (u8, Vec<u64>), out| out.emit_t(&v, &t))),
                Arc::new(reduce_fn(
                    |u: u64, records: Vec<(u8, Vec<u64>)>, out: &mut ReduceOutput| {
                        let Some(adj) = records.iter().find(|(t, _)| *t == 0).map(|(_, n)| n)
                        else {
                            return;
                        };
                        for &v in adj.iter().filter(|&&v| v < u) {
                            let clique = vec![v, u];
                            for &w in adj.iter().filter(|&&w| w > u) {
                                out.emit_t(&w, &(1u8, clique.clone()));
                            }
                        }
                    },
                )),
            )
            .with_input_format(InputFormat::KeyValue);
            jobs.push(env.mr.run(&job).map_err(|e| e.to_string())?);
        }

        // Jobs for sizes 3..=k: validate candidates against adjacency.
        for size in 3..=self.k {
            let is_last = size == self.k;
            let out_path = if is_last {
                env.unique_path("kcliques/out")
            } else {
                env.unique_path(&format!("kcliques/req{}", size + 1))
            };
            let mut inputs = env.dfs.list(&format!("{adj_path}/"));
            inputs.extend(env.dfs.list(&format!("{requests_path}/")));
            let job = JobConf::new(
                format!("kc-verify{size}"),
                inputs,
                &out_path,
                Arc::new(map_fn(|v: u64, t: (u8, Vec<u64>), out| out.emit_t(&v, &t))),
                Arc::new(reduce_fn(
                    move |u: u64, records: Vec<(u8, Vec<u64>)>, out: &mut ReduceOutput| {
                        let mut adj: Option<&Vec<u64>> = None;
                        for (t, payload) in &records {
                            if *t == 0 {
                                adj = Some(payload);
                            }
                        }
                        let Some(adj) = adj else { return };
                        for (t, members) in &records {
                            if *t != 1 {
                                continue;
                            }
                            if !members.iter().all(|m| adj.binary_search(m).is_ok()) {
                                continue;
                            }
                            let mut clique = members.clone();
                            clique.push(u);
                            if is_last {
                                out.emit_t(&clique, &1u64);
                            } else {
                                for &w in adj.iter().filter(|&&w| w > u) {
                                    out.emit_t(&w, &(1u8, clique.clone()));
                                }
                            }
                        }
                    },
                )),
            )
            .with_input_format(InputFormat::KeyValue);
            jobs.push(env.mr.run(&job).map_err(|e| e.to_string())?);
            if is_last {
                let (checksum, records) = mr_output_checksum(env, &out_path)?;
                return Ok(BenchOutput::mapred(start.elapsed(), checksum, records, &jobs));
            }
            requests_path = out_path;
        }
        unreachable!("the loop's last size returns")
    }
}
