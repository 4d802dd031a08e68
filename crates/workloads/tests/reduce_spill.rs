//! Reduce spill end to end. PageRank (its setup job's `HashJoinRed`)
//! and K-Cliques (`KCliquesGraphBuilder`) run on a memory budget of 64
//! bytes. That is below the footprint of one grouping table with
//! nothing in it, so every reduce that is handed a record spills it and
//! fires through the merge of its runs. Both engines must still agree.
//! These two are the only `Reduce`s in the benchmarks' jobs, bar
//! WordCount's full-reduce ablation: the reducers that need a whole
//! group. PageRank's summing `MergeRed` and `PRUpdateRed` are partial
//! reduces, which hold one accumulator per key and never spill.

use hamr_core::RuntimeConfig;
use hamr_trace::Labels;
use hamr_workloads::kcliques::KCliques;
use hamr_workloads::pagerank::PageRank;
use hamr_workloads::{Benchmark, Env, SimParams};

fn engines_agree_while_every_reduce_spills(bench: &dyn Benchmark) {
    let runtime = RuntimeConfig {
        memory_budget: 64,
        ..Default::default()
    };
    let env = Env::with_hamr_runtime(SimParams::test(2, 2), runtime);
    bench.seed(&env).expect("seed");
    let hamr = bench.run_hamr(&env).expect("hamr run");
    let mapred = bench.run_mapred(&env).expect("mapred run");
    assert!(
        hamr.records > 0,
        "{}: an empty answer proves nothing",
        bench.name()
    );
    assert_eq!(
        (hamr.checksum, hamr.records),
        (mapred.checksum, mapred.records),
        "{}: a spilling reduce changed the answer",
        bench.name()
    );
    let spilled = env
        .hamr
        .registry()
        .counter("spilled_bytes_total", Labels::new().engine("hamr"))
        .get();
    assert!(spilled > 0, "{}: nothing spilled", bench.name());
}

#[test]
fn pagerank_agrees_when_every_reduce_spills() {
    engines_agree_while_every_reduce_spills(&PageRank::default());
}

#[test]
fn kcliques_agrees_when_every_reduce_spills() {
    engines_agree_while_every_reduce_spills(&KCliques::default());
}
