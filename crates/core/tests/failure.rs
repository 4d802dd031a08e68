//! Failure injection: a panic in any flowlet kind, at any stage, must
//! surface as a `RunError::NodePanic` carrying the message, and a spill
//! run cut short as a `RunError::Disk` — never a hang, never a wrong
//! answer — and the cluster must stay usable.

use hamr_core::{
    stream, typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, RunError, SchedMode,
};
use hamr_simdisk::DiskError;
use std::time::{Duration, Instant};

fn expect_panic(cluster: &Cluster, job: JobBuilder, needle: &str) {
    match cluster.run(job.build().unwrap()) {
        Err(RunError::NodePanic { message, .. }) => {
            assert!(
                message.contains(needle),
                "panic message should contain {needle:?}, got {message:?}"
            );
        }
        Err(other) => panic!("expected NodePanic, got {other}"),
        Ok(_) => panic!("job with a panicking flowlet succeeded"),
    }
}

fn base_cluster() -> Cluster {
    Cluster::new(ClusterConfig::local(3, 2))
}

#[test]
fn loader_panic_is_reported() {
    let cluster = base_cluster();
    let mut job = JobBuilder::new("boom-loader");
    let loader = job.add_loader(
        "bad",
        typed::gen_loader(
            |_ctx| 1,
            |_ctx, _split, _out: &mut Emitter| panic!("loader blew up"),
        ),
    );
    let sink = job.add_partial_reduce("sink", typed::sum_reducer::<u64>());
    job.connect(loader, sink, Exchange::Hash);
    expect_panic(&cluster, job, "loader blew up");
}

#[test]
fn map_panic_on_specific_record_is_reported() {
    let cluster = base_cluster();
    let mut job = JobBuilder::new("boom-map");
    let loader = job.add_loader(
        "nums",
        typed::pairs_loader((0..100u64).map(|i| (i, i)).collect::<Vec<_>>()),
    );
    let bad = job.add_map(
        "bad",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| {
            if k == 57 {
                panic!("record 57 is cursed");
            }
            out.emit_t(0, &k, &v);
        }),
    );
    let sink = job.add_partial_reduce("sink", typed::sum_reducer::<u64>());
    job.connect(loader, bad, Exchange::Hash);
    job.connect(bad, sink, Exchange::Hash);
    expect_panic(&cluster, job, "record 57 is cursed");
}

#[test]
fn reduce_fire_panic_is_reported() {
    let cluster = base_cluster();
    let mut job = JobBuilder::new("boom-reduce");
    let loader = job.add_loader(
        "nums",
        typed::pairs_loader((0..20u64).map(|i| (i % 3, i)).collect::<Vec<_>>()),
    );
    let bad = job.add_reduce(
        "bad",
        typed::reduce_fn(|_k: u64, _vs: typed::Values<u64>, _out: &mut Emitter| {
            panic!("reduce exploded at fire time");
        }),
    );
    job.connect(loader, bad, Exchange::Hash);
    expect_panic(&cluster, job, "reduce exploded");
}

#[test]
fn partial_finish_panic_is_reported() {
    let cluster = base_cluster();
    let mut job = JobBuilder::new("boom-finish");
    let loader = job.add_loader("nums", typed::pairs_loader(vec![(1u64, 1u64), (2, 2)]));
    let bad = job.add_partial_reduce(
        "bad",
        typed::partial_fn::<u64, u64, u64, _, _, _>(
            |v| v,
            |a, v| a + v,
            |_ctx, _k, _acc, _out: &mut Emitter| panic!("finish exploded"),
        ),
    );
    job.connect(loader, bad, Exchange::Hash);
    expect_panic(&cluster, job, "finish exploded");
}

#[test]
fn stream_epoch_panic_is_reported() {
    let cluster = base_cluster();
    let mut job = JobBuilder::new("boom-stream");
    let src = job.add_stream(
        "bad",
        stream::gen_stream(|_ctx, epoch, _out: &mut Emitter| {
            if epoch == 1 {
                panic!("stream died at epoch 1");
            }
            true
        }),
    );
    let sink = job.add_partial_reduce("sink", typed::sum_reducer::<u64>());
    job.connect(src, sink, Exchange::Hash);
    expect_panic(&cluster, job, "stream died at epoch 1");
}

#[test]
fn typed_decode_mismatch_is_reported_not_hung() {
    // Wire a String-emitting map into a u64-consuming map: the typed
    // layer must panic with a diagnostic, surfaced as NodePanic.
    let cluster = base_cluster();
    let mut job = JobBuilder::new("type-confusion");
    let loader = job.add_loader("one", typed::pairs_loader(vec![(1u64, 1u64)]));
    let stringy = job.add_map(
        "stringy",
        typed::map_fn(|_k: u64, _v: u64, out: &mut Emitter| {
            out.emit_t(0, &"not a number".to_string(), &"x".to_string());
        }),
    );
    let numeric = job.add_map(
        "numeric",
        typed::map_fn(|_k: f64, _v: f64, out: &mut Emitter| {
            out.emit_t(0, &0u64, &0u64);
        }),
    );
    let sink = job.add_partial_reduce("sink", typed::sum_reducer::<u64>());
    job.connect(loader, stringy, Exchange::Local);
    job.connect(stringy, numeric, Exchange::Hash);
    job.connect(numeric, sink, Exchange::Hash);
    expect_panic(&cluster, job, "decode");
}

#[test]
fn cluster_stays_usable_after_a_failed_job() {
    let cluster = base_cluster();
    // Job 1 fails.
    let mut bad = JobBuilder::new("bad");
    let loader = bad.add_loader("one", typed::pairs_loader(vec![(1u64, 1u64)]));
    let boom = bad.add_map(
        "boom",
        typed::map_fn(|_k: u64, _v: u64, _out: &mut Emitter| panic!("first job dies")),
    );
    bad.connect(loader, boom, Exchange::Hash);
    assert!(cluster.run(bad.build().unwrap()).is_err());

    // Job 2 on the same cluster succeeds and is correct.
    let mut good = JobBuilder::new("good");
    let loader = good.add_loader(
        "nums",
        typed::pairs_loader((0..50u64).map(|i| (i, 1u64)).collect::<Vec<_>>()),
    );
    let sum = good.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    good.connect(loader, sum, Exchange::Hash);
    good.capture_output(sum);
    let result = cluster.run(good.build().unwrap()).unwrap();
    let total: u64 = result
        .typed_output::<u64, u64>(sum)
        .iter()
        .map(|(_, v)| v)
        .sum();
    assert_eq!(total, 50);
}

#[test]
fn panic_on_one_node_aborts_all_nodes_promptly() {
    // The panic happens for one specific key (on one node); the other
    // nodes' loaders are long-running. Abort must reach everyone well
    // before the stall watchdog (300 s).
    let cluster = Cluster::new(ClusterConfig::local(4, 2));
    let mut job = JobBuilder::new("abort-propagation");
    let loader = job.add_loader(
        "nums",
        typed::pairs_loader((0..10_000u64).map(|i| (i, i)).collect::<Vec<_>>()),
    );
    let bad = job.add_map(
        "bad",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| {
            if k == 9_999 {
                panic!("late panic");
            }
            out.emit_t(0, &k, &v);
        }),
    );
    let sink = job.add_partial_reduce("sink", typed::sum_reducer::<u64>());
    job.connect(loader, bad, Exchange::Hash);
    job.connect(bad, sink, Exchange::Hash);
    let start = std::time::Instant::now();
    assert!(cluster.run(job.build().unwrap()).is_err());
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "abort took {:?}",
        start.elapsed()
    );
}

#[test]
fn a_truncated_spill_run_fails_the_job_with_a_disk_error() {
    // Every record a reduce ingests spills (a 1-byte budget), and a
    // second loader — which the reduce also waits for — cuts each run
    // three bytes short before the fire reads it back. Two workers,
    // work stealing: the cutter's split blocks one while the other
    // ingests.
    const RECORDS: usize = 8;
    let mut config = ClusterConfig::local(1, 2);
    config.runtime.memory_budget = 1;
    config.runtime.sched = SchedMode::WorkStealing;
    let cluster = Cluster::new(config);
    let mut job = JobBuilder::new("truncated-run");
    let pairs: Vec<(u64, u64)> = (0..RECORDS as u64).map(|i| (i, i)).collect();
    let loader = job.add_loader("pairs", typed::pairs_loader(pairs));
    let cutter = job.add_loader(
        "cutter",
        typed::gen_loader(
            |_ctx| 1,
            |ctx, _split, _out: &mut Emitter| {
                let deadline = Instant::now() + Duration::from_secs(30);
                let runs = loop {
                    let runs: Vec<String> = ctx.disk.list();
                    let runs: Vec<String> = runs
                        .into_iter()
                        .filter(|n| n.starts_with("hamr.spill"))
                        .collect();
                    if runs.len() == RECORDS {
                        break runs;
                    }
                    assert!(Instant::now() < deadline, "the reduce never spilled");
                    std::thread::sleep(Duration::from_millis(2));
                };
                for run in runs {
                    let whole = ctx.disk.read_all(&run).unwrap();
                    ctx.disk.delete(&run);
                    ctx.disk.write_all(&run, &whole[..whole.len() - 3]).unwrap();
                }
            },
        ),
    );
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect(loader, sum, Exchange::Hash);
    job.connect(cutter, sum, Exchange::Hash);
    job.capture_output(sum);
    match cluster.run(job.build().unwrap()) {
        Err(RunError::Disk(DiskError::Truncated { file, .. })) => {
            assert!(file.starts_with("hamr.spill"), "{file}")
        }
        Err(other) => panic!("expected a truncated run, got {other}"),
        Ok(r) => panic!(
            "a fire over truncated runs answered {} groups",
            r.typed_output::<u64, u64>(sum).len()
        ),
    }
}
