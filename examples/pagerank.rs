//! Iterative PageRank with in-memory state between jobs (paper Alg. 2).
//!
//! Iteration 0 builds each page's in-link list into the distributed KV
//! store, at the page's home; later iterations run entirely from
//! memory — no disk IO and no edge on the fabric, only the rank
//! frontier — which is where HAMR's 13.6x over Hadoop comes from on
//! this workload.
//!
//! ```sh
//! cargo run --example pagerank
//! ```

use hamr::workloads::{pagerank::PageRank, Benchmark, Env, SimParams};

fn main() {
    let env = Env::new(SimParams::test(4, 2).with_scale(0.05));
    let bench = PageRank {
        pages: 2_000,
        max_out_links: 6,
        iterations: 4,
        resident: true,
    };
    bench.seed(&env).expect("seed web graph");

    println!("running {} iterations of PageRank on both engines...", 4);
    let hamr = bench.run_hamr(&env).expect("hamr");
    let mapred = bench.run_mapred(&env).expect("mapred");

    println!("pages ranked:       {}", hamr.records);
    println!("results identical:  {}", hamr.checksum == mapred.checksum);
    println!(
        "hamr elapsed:       {:?} (2 jobs/iteration after the first, state in memory)",
        hamr.elapsed
    );
    println!(
        "mapred elapsed:     {:?} (2 jobs/iteration + adjacency job, state on DFS)",
        mapred.elapsed
    );

    // Peek at the top-ranked pages straight out of the KV store.
    let mut ranks: Vec<(u64, u64)> = Vec::new();
    for node in 0..env.params.nodes {
        env.hamr.kv().shard(node).for_each(|k, v| {
            if let Some(mut rest) = k.strip_prefix(b"pr/r") {
                let page = <u64 as hamr::codec::Codec>::decode(&mut rest).unwrap();
                let rank = <u64 as hamr::codec::Codec>::from_bytes(v).unwrap();
                ranks.push((page, rank));
            }
        });
    }
    ranks.sort_by_key(|&(_, rank)| std::cmp::Reverse(rank));
    println!("top pages (rank in millionths):");
    for (page, rank) in ranks.iter().take(5) {
        println!("  page {page:>6}  rank {rank}");
    }
}
