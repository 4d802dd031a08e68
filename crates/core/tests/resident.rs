//! Partition-resident frame cache, end to end: job chains on one
//! `Cluster`, serve/fill round trips, shuffle collapse on cache hits,
//! audit custody balance, invalidation, and scheduler-mode agreement.

use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, JobGraph, JobResult, RunOptions,
    SchedMode, Supervision,
};

fn pairs(n: u64, salt: u64) -> Vec<(u64, u64)> {
    (0..n).map(|i| (i, i * 3 + salt)).collect()
}

/// loader --Hash--> sum, with the loader annotated `resident(tag)`.
/// The Hash edge crosses the fabric, so a cache hit must collapse
/// `shuffled_bytes` to control-message noise.
fn cached_sum_job(name: &str, data: Vec<(u64, u64)>, tag: &str, fp: u64) -> (JobGraph, usize) {
    sum_job(name, data, Some((tag, fp)))
}

fn sum_job(name: &str, data: Vec<(u64, u64)>, cache: Option<(&str, u64)>) -> (JobGraph, usize) {
    let mut job = JobBuilder::new(name);
    let loader = job.add_loader("pairs", typed::pairs_loader(data));
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect(loader, sum, Exchange::Hash);
    job.capture_output(sum);
    if let Some((tag, fp)) = cache {
        job.resident(loader, tag, fp);
    }
    (job.build().unwrap(), sum)
}

/// Run `jobs` in order on `cluster`, stopping at the first failure.
fn run_chain<const N: usize>(cluster: &Cluster, jobs: [JobGraph; N]) -> Vec<JobResult> {
    jobs.into_iter().map(|j| cluster.run(j).unwrap()).collect()
}

fn sorted_output(result: &JobResult, f: usize) -> Vec<(u64, u64)> {
    let mut out = result.typed_output::<u64, u64>(f);
    out.sort();
    out
}

fn cluster_with(sched: SchedMode) -> Cluster {
    let mut config = ClusterConfig::local(4, 2);
    config.runtime.sched = sched;
    Cluster::new(config)
}

#[test]
fn chain_hit_serves_identical_output_and_collapses_shuffle() {
    let cluster = cluster_with(SchedMode::WorkStealing);
    let data = pairs(4000, 1);
    let (job1, f1) = cached_sum_job("chain-a", data.clone(), "t/sum", 42);
    let (job2, f2) = cached_sum_job("chain-b", data, "t/sum", 42);
    let results = run_chain(&cluster, [job1, job2]);
    let first = sorted_output(&results[0], f1);
    let second = sorted_output(&results[1], f2);
    assert_eq!(first.len(), 4000);
    assert_eq!(first, second, "served run must replay identical output");

    let stats = cluster.resident().stats();
    assert_eq!(stats.misses, 1, "first run misses and fills");
    assert_eq!(stats.hits, 1, "second run serves from the store");
    assert!(stats.bytes_saved > 0);
    assert!(stats.resident_bytes > 0);

    // What the hit removes is the loader's whole shuffle: on the
    // served run it emits no record and ships no bin, whatever a
    // record costs on the wire.
    let loader = |r: &JobResult| {
        let m = r.metrics.flowlets.values().find(|m| m.name == "pairs");
        m.map(|m| (m.records_out, m.bins_out > 0))
    };
    assert_eq!(loader(&results[0]), Some((4000, true)));
    assert_eq!(loader(&results[1]), Some((0, false)));
    // So the bytes left on the fabric are control messages: 288 against
    // 18,614 with frames of `klen key vlen value` entries (64x; the 10x
    // floor does not lean on the 8 B/record of hash the full side used
    // to carry).
    let full = results[0].metrics.shuffled_bytes;
    let served = results[1].metrics.shuffled_bytes;
    assert!(
        served * 10 <= full,
        "cache hit must cut shuffled bytes >=10x (full={full}, served={served})"
    );
}

#[test]
fn chain_custody_balances_on_fill_and_serve() {
    let cluster = cluster_with(SchedMode::WorkStealing);
    let data = pairs(1500, 9);
    let (job1, f1) = cached_sum_job("audit-a", data.clone(), "t/audit", 7);
    let (job2, f2) = cached_sum_job("audit-b", data, "t/audit", 7);
    let audited = RunOptions {
        supervision: Some(Supervision::default()),
        ..Default::default()
    };
    let r1 = cluster.run_with(job1, &audited).unwrap();
    let report1 = cluster.last_audit().expect("supervised runs are audited");
    report1.check().expect("fill run custody balances");
    let r2 = cluster.run_with(job2, &audited).unwrap();
    let report2 = cluster.last_audit().expect("supervised runs are audited");
    report2
        .check()
        .expect("served run custody balances: emit==ship==deliver==consume locally");
    assert_eq!(cluster.resident().stats().hits, 1);
    assert_eq!(sorted_output(&r1, f1), sorted_output(&r2, f2));
}

#[test]
fn fingerprint_change_bypasses_and_recomputes() {
    let cluster = cluster_with(SchedMode::WorkStealing);
    let (job1, _) = cached_sum_job("fp-a", pairs(800, 1), "t/fp", 1);
    let (job2, f2) = cached_sum_job("fp-b", pairs(800, 2), "t/fp", 2);
    let results = run_chain(&cluster, [job1, job2]);
    let stats = cluster.resident().stats();
    assert_eq!(stats.hits, 0, "changed fingerprint must not serve");
    assert_eq!(stats.misses, 2);
    // The recompute reflects the new input, not the pinned frames.
    let expect: Vec<(u64, u64)> = pairs(800, 2);
    assert_eq!(sorted_output(&results[1], f2), expect);
}

#[test]
fn disabled_store_leaves_chain_unchanged() {
    // Without a `resident(..)` annotation a job neither serves nor
    // fills: the annotation is the only switch.
    let cluster = cluster_with(SchedMode::WorkStealing);
    let data = pairs(1000, 5);
    let (job1, f1) = sum_job("off-a", data.clone(), None);
    let (job2, f2) = sum_job("off-b", data, None);
    let results = run_chain(&cluster, [job1, job2]);
    let stats = cluster.resident().stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    assert_eq!(
        sorted_output(&results[0], f1),
        sorted_output(&results[1], f2)
    );
    // Both runs paid the full shuffle.
    assert!(results[1].metrics.shuffled_bytes >= results[0].metrics.shuffled_bytes / 2);
}

#[test]
fn serve_agrees_across_all_scheduler_modes() {
    let mut baseline: Option<Vec<(u64, u64)>> = None;
    for sched in [
        SchedMode::WorkStealing,
        SchedMode::Deterministic { seed: 7 },
        SchedMode::Deterministic { seed: 2015 },
    ] {
        let cluster = cluster_with(sched);
        let data = pairs(1200, 4);
        let (job1, _) = cached_sum_job("mode-a", data.clone(), "t/mode", 11);
        let (job2, f2) = cached_sum_job("mode-b", data, "t/mode", 11);
        let results = run_chain(&cluster, [job1, job2]);
        assert_eq!(cluster.resident().stats().hits, 1, "{sched:?} serves");
        let out = sorted_output(&results[1], f2);
        match &baseline {
            None => baseline = Some(out),
            Some(b) => assert_eq!(&out, b, "{sched:?} disagrees with baseline"),
        }
    }
}

#[test]
fn reset_namespace_scopes_kv_and_cache() {
    let cluster = cluster_with(SchedMode::WorkStealing);
    let (job1, _) = cached_sum_job("ns-a", pairs(300, 1), "pr/adj", 5);
    let (other, _) = cached_sum_job("ns-b", pairs(300, 1), "km/pts", 5);
    run_chain(&cluster, [job1, other]);
    cluster.kv().put(
        bytes::Bytes::from_static(b"pr/rank0"),
        bytes::Bytes::from_static(b"x"),
    );
    cluster.kv().put(
        bytes::Bytes::from_static(b"km/c0"),
        bytes::Bytes::from_static(b"y"),
    );
    cluster.reset_namespace("pr/");
    // The pr/ tag and keys are gone; km/ untouched.
    assert_eq!(cluster.resident().stats().entries, 1);
    assert!(cluster.kv().get(b"pr/rank0").is_none());
    assert!(cluster.kv().get(b"km/c0").is_some());
    // A rerun of the pr job must miss (recompute), km still hits.
    let (job3, _) = cached_sum_job("ns-c", pairs(300, 1), "pr/adj", 5);
    let (job4, _) = cached_sum_job("ns-d", pairs(300, 1), "km/pts", 5);
    let before = cluster.resident().stats();
    run_chain(&cluster, [job3, job4]);
    let after = cluster.resident().stats();
    assert_eq!(after.hits - before.hits, 1, "km/ serves");
    assert_eq!(after.misses - before.misses, 1, "pr/ recomputes");
}
