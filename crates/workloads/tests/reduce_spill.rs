//! Reduce spill end to end. K-Cliques (`KCliquesGraphBuilder`) and
//! WordCount's full-reduce ablation (`CountReduce`) run on a memory
//! budget of 64 bytes. That is below the footprint of one grouping
//! table with nothing in it, so every reduce that is handed a record
//! spills it and fires through the merge of its runs. Both engines must
//! still agree. These two are the only `Reduce`s in the benchmarks'
//! jobs: K-Cliques needs each vertex's whole neighbour set, and the
//! ablation is the full-reduce side of WordCount's partial-vs-full
//! comparison. PageRank has none since its in-link lists became packed
//! partial-reduce accumulators; it keeps its engine check on the same
//! budget, and spills nothing.

use hamr_core::RuntimeConfig;
use hamr_trace::Labels;
use hamr_workloads::kcliques::KCliques;
use hamr_workloads::pagerank::PageRank;
use hamr_workloads::wordcount::WordCount;
use hamr_workloads::{BenchOutput, Benchmark, Env, SimParams};

/// Run `bench` on both engines under a 64-byte memory budget, HAMR's
/// side through `hamr`, check they agree, and return the bytes HAMR's
/// reduces spilled.
fn spilled_while_engines_agree(
    bench: &dyn Benchmark,
    hamr: impl Fn(&Env) -> Result<BenchOutput, String>,
) -> u64 {
    let runtime = RuntimeConfig {
        memory_budget: 64,
        ..Default::default()
    };
    let env = Env::with_hamr_runtime(SimParams::test(2, 2), runtime);
    bench.seed(&env).expect("seed");
    let hamr = hamr(&env).expect("hamr run");
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
    env.hamr
        .registry()
        .counter("spilled_bytes_total", Labels::new().engine("hamr"))
        .get()
}

#[test]
fn pagerank_agrees_when_every_reduce_spills() {
    let bench = PageRank::default();
    let spilled = spilled_while_engines_agree(&bench, |env| bench.run_hamr(env));
    assert_eq!(spilled, 0, "PageRank has no reduce to spill");
}

#[test]
fn kcliques_agrees_when_every_reduce_spills() {
    let bench = KCliques::default();
    let spilled = spilled_while_engines_agree(&bench, |env| bench.run_hamr(env));
    assert!(spilled > 0, "K-Cliques: nothing spilled");
}

#[test]
fn wordcount_full_reduce_agrees_when_every_reduce_spills() {
    let bench = WordCount::default();
    let spilled = spilled_while_engines_agree(&bench, |env| bench.run_hamr_with(env, false));
    assert!(spilled > 0, "WordCount's full reduce: nothing spilled");
}
