//! A hand-off through a node's runtime thread costs a wake-up, not a
//! poll interval. A node runs at most two loader splits at once, so
//! each further split is dispatched when an earlier one's `TaskDone`
//! reaches the runtime: a job of empty splits is a chain of hand-offs
//! and little else. 400 of them on one worker take ≈ 6 ms (debug
//! build) when the runtime's `select!` blocks until a message arrives,
//! and ≥ 110 ms when it polls its inboxes with a 500 µs sleep.

use hamr_core::{typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder};
use std::time::{Duration, Instant};

const SPLITS: usize = 400;

#[test]
fn four_hundred_empty_splits_finish_in_under_40_ms() {
    let cluster = Cluster::new(ClusterConfig::local(1, 1));
    let mut job = JobBuilder::new("empty-splits");
    let loader = job.add_loader(
        "empty",
        typed::gen_loader(|_| SPLITS, |_, _, _: &mut Emitter| {}),
    );
    let map = job.add_map(
        "pass",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.output_t(&k, &v)),
    );
    job.connect(loader, map, Exchange::Local);
    job.capture_output(map);
    let graph = job.build().unwrap();
    let start = Instant::now();
    let result = cluster.run(graph).unwrap();
    let took = start.elapsed();
    assert_eq!(result.output(map).len(), 0);
    assert!(
        took < Duration::from_millis(40),
        "{SPLITS} empty splits took {took:?}"
    );
}
