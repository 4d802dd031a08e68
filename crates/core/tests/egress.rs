//! Egress at close: a task's bins leave the moment they close, not when
//! the task ends. A single loader split on node 0 closes one bin for
//! node 1, then waits — with a bound — until node 1's map has consumed
//! a record of it before it emits the next. Were the bin held until the
//! split ended, the map could not run while the split waits, and the
//! wait would run out.

use hamr_core::{typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, SchedMode};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records per bin: the split's first `CAP` records close bin 1.
const CAP: usize = 16;
/// Far longer than a bin takes to reach an idle node and be mapped.
const BOUND: Duration = Duration::from_secs(5);

/// Run the job; say whether the split saw its first bin consumed
/// before it emitted its second, and what the map captured.
fn run(sched: SchedMode) -> (bool, Vec<(u64, u64)>) {
    let consumed = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(AtomicBool::new(false));
    let mut job = JobBuilder::new("egress-at-close");
    let (c, s) = (Arc::clone(&consumed), Arc::clone(&seen));
    let loader = job.add_loader(
        "one-split",
        typed::gen_loader(
            |ctx| usize::from(ctx.node == 0),
            move |_, _, out: &mut Emitter| {
                // Key 1: every record goes to node 1 (`KeyNode`).
                for i in 0..CAP as u64 {
                    out.emit_t(0, &1u64, &i);
                }
                let start = Instant::now();
                while c.load(Ordering::SeqCst) == 0 && start.elapsed() < BOUND {
                    std::thread::sleep(Duration::from_millis(1));
                }
                s.store(c.load(Ordering::SeqCst) > 0, Ordering::SeqCst);
                for i in CAP as u64..2 * CAP as u64 {
                    out.emit_t(0, &1u64, &i);
                }
            },
        ),
    );
    let map = job.add_map(
        "consume",
        typed::map_ctx_fn(move |ctx, _key: u64, i: u64, out: &mut Emitter| {
            consumed.fetch_add(1, Ordering::SeqCst);
            out.output_t(&i, &(ctx.node as u64));
        }),
    );
    job.connect(loader, map, Exchange::KeyNode);
    job.capture_output(map);
    let mut config = ClusterConfig::local(2, 1);
    config.runtime.bin_capacity = CAP;
    config.runtime.sched = sched;
    let result = Cluster::new(config).run(job.build().unwrap()).unwrap();
    let mut output = result.typed_output::<u64, u64>(map);
    output.sort();
    (seen.load(Ordering::SeqCst), output)
}

#[test]
fn a_tasks_first_bin_is_consumed_remotely_before_the_task_ends() {
    for sched in [
        SchedMode::WorkStealing,
        SchedMode::Deterministic { seed: 3 },
    ] {
        let (seen, output) = run(sched);
        assert!(
            seen,
            "{sched:?}: bin 1 was not consumed within {BOUND:?} of closing"
        );
        let expected: Vec<(u64, u64)> = (0..2 * CAP as u64).map(|i| (i, 1)).collect();
        assert_eq!(output, expected, "{sched:?}");
    }
}
