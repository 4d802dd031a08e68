//! Scheduler-mode integration tests: work stealing under skew,
//! cross-mode agreement, deterministic replay, and typed config
//! rejection.

use hamr_core::{
    typed, Cluster, ClusterConfig, ConfigError, Emitter, Exchange, JobBuilder, SchedMode,
};
use std::time::{Duration, Instant};

/// Spin for roughly `us` microseconds — simulates a compute-heavy
/// record without sleeping (sleeps park the thread and would let every
/// worker drain its queue before anyone needs to steal).
fn spin_us(us: u64) {
    let end = Instant::now() + Duration::from_micros(us);
    while Instant::now() < end {
        std::hint::black_box(0u64);
    }
}

/// A skewed job: many small bins, where a fraction of records are two
/// orders of magnitude more expensive than the rest. The expensive
/// bins pile up behind one worker's deque; its peers go dry and must
/// steal.
fn skewed_job() -> (hamr_core::JobGraph, hamr_core::FlowletId) {
    let mut job = JobBuilder::new("sched-skew");
    let pairs: Vec<(u64, u64)> = (0..6000u64).map(|i| (i, 1)).collect();
    let loader = job.add_loader("pairs", typed::pairs_loader(pairs));
    let work = job.add_map(
        "work",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| {
            // Every 40th key burns ~150us; the rest are nearly free.
            if k.is_multiple_of(40) {
                spin_us(150);
            }
            out.emit_t(0, &(k % 16), &v);
        }),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    job.connect(loader, work, Exchange::Local);
    job.connect(work, sum, Exchange::Hash);
    job.capture_output(sum);
    (job.build().unwrap(), sum)
}

fn skew_config(sched: SchedMode) -> ClusterConfig {
    let mut config = ClusterConfig::local(2, 4);
    // Small bins: lots of schedulable units per node.
    config.runtime.bin_capacity = 16;
    config.runtime.sched = sched;
    config
}

fn checksum(out: &mut [(u64, u64)]) -> Vec<(u64, u64)> {
    out.sort();
    out.to_vec()
}

#[test]
fn work_stealing_steals_under_skew() {
    let cluster = Cluster::new(skew_config(SchedMode::WorkStealing));
    let (job, sum) = skewed_job();
    let result = cluster.run(job).unwrap();
    let mut out = result.typed_output::<u64, u64>(sum);
    assert_eq!(out.iter().map(|(_, v)| v).sum::<u64>(), 6000);
    checksum(&mut out);

    let m = &result.metrics;
    assert!(
        m.total_steals() > 0,
        "skewed bins must trigger steals; metrics: steals={} stolen={}",
        m.total_steals(),
        m.total_stolen_tasks()
    );
    assert!(m.total_stolen_tasks() >= m.total_steals());
    for (node, nm) in m.nodes.iter().enumerate() {
        assert_eq!(nm.tasks_per_worker.len(), 4, "node {node} worker lanes");
        assert!(
            nm.tasks_per_worker.iter().all(|&t| t > 0),
            "every worker on node {node} must run tasks; got {:?}",
            nm.tasks_per_worker
        );
    }
}

#[test]
fn deterministic_mode_reports_no_steals() {
    let cluster = Cluster::new(skew_config(SchedMode::Deterministic { seed: 7 }));
    let (job, sum) = skewed_job();
    let result = cluster.run(job).unwrap();
    let mut out = result.typed_output::<u64, u64>(sum);
    assert_eq!(out.iter().map(|(_, v)| v).sum::<u64>(), 6000);
    checksum(&mut out);
    assert_eq!(result.metrics.total_steals(), 0);
    assert_eq!(result.metrics.total_stolen_tasks(), 0);
}

#[test]
fn all_sched_modes_agree() {
    let mut answers = Vec::new();
    for sched in [
        SchedMode::WorkStealing,
        SchedMode::Deterministic { seed: 7 },
        SchedMode::Deterministic { seed: 2015 },
    ] {
        let cluster = Cluster::new(skew_config(sched));
        let (job, sum) = skewed_job();
        let result = cluster.run(job).unwrap();
        let mut out = result.typed_output::<u64, u64>(sum);
        answers.push(checksum(&mut out));
    }
    assert_eq!(answers[0], answers[1], "ws vs deterministic, seed 7");
    assert_eq!(answers[0], answers[2], "ws vs deterministic, seed 2015");
    assert_eq!(answers[0].len(), 16);
}

#[test]
fn deterministic_mode_results_independent_of_seed() {
    // The seed only shuffles the order ready tasks are picked in —
    // never the results. Repeat runs of one seed and runs under
    // different seeds all agree on the captured output.
    let run = |seed: u64| {
        let cluster = Cluster::new(skew_config(SchedMode::Deterministic { seed }));
        let (job, sum) = skewed_job();
        let result = cluster.run(job).unwrap();
        let mut out = result.typed_output::<u64, u64>(sum);
        checksum(&mut out)
    };
    let base = run(42);
    assert_eq!(base, run(42));
    assert_eq!(base, run(7));
    assert_eq!(base.iter().map(|(_, v)| v).sum::<u64>(), 6000);
}

#[test]
fn zero_threads_rejected_with_typed_error() {
    let mut config = ClusterConfig::local(2, 2);
    config.threads_per_node = 0;
    match Cluster::try_new(config) {
        Err(ConfigError::ZeroThreads) => {}
        Err(other) => panic!("expected ZeroThreads, got {other}"),
        Ok(_) => panic!("zero threads must be rejected"),
    }
}

#[test]
fn zero_nodes_rejected_with_typed_error() {
    let mut config = ClusterConfig::local(1, 1);
    config.nodes = 0;
    match Cluster::try_new(config) {
        Err(ConfigError::ZeroNodes) => {}
        Err(other) => panic!("expected ZeroNodes, got {other}"),
        Ok(_) => panic!("zero nodes must be rejected"),
    }
}

#[test]
fn invalid_config_panic_path_still_panics() {
    let mut config = ClusterConfig::local(1, 1);
    config.threads_per_node = 0;
    let err = match std::panic::catch_unwind(move || Cluster::new(config)) {
        Err(payload) => payload,
        Ok(_) => panic!("zero threads must panic through Cluster::new"),
    };
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("worker"),
        "panic message names the field: {msg}"
    );
}
