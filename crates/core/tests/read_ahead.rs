//! Loader read-ahead, seen from outside the engine: a split's disk read
//! is issued when the split is admitted — the next split's with it — so
//! the device works while a worker computes. Every assertion is on the
//! *order* of trace events or on counters, never on wall time, so a
//! noisy host cannot fail it.

use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, RunOptions, SchedMode,
};
use hamr_dfs::{Dfs, DfsConfig};
use hamr_simdisk::{Disk, DiskConfig, DiskMetrics};
use hamr_trace::{EventKind, TaskKind, TraceEvent, TraceSink, Tracer};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const NODES: usize = 2;
const BLOCKS: usize = 16;
const LINES_PER_BLOCK: usize = 10;
const LINE_BYTES: usize = 1000; // with its newline
const INPUT: &str = "in.txt";
/// `LOADER_CONCURRENCY` + 1: the admitted splits plus the one ahead.
const MAX_OUTSTANDING: usize = 3;

/// Keeps events in the order `record` was called: one total order
/// across threads, where the ring sink only has per-lane order.
#[derive(Default)]
struct OrderSink(Mutex<Vec<TraceEvent>>);

impl TraceSink for OrderSink {
    fn record(&self, ev: TraceEvent) {
        self.0.lock().unwrap().push(ev);
    }
}

/// Two 1 MB/s disks (10 ms per 10 KB block) under a DFS that spreads
/// sixteen unreplicated blocks round-robin: eight splits per node.
fn substrates() -> (Vec<Disk>, Dfs) {
    let disks: Vec<Disk> = (0..NODES)
        .map(|_| Disk::new(DiskConfig::modeled(1_000_000, Duration::ZERO)))
        .collect();
    let dfs = Dfs::new(
        disks.clone(),
        DfsConfig {
            block_size: LINES_PER_BLOCK * LINE_BYTES,
            replication: 1,
        },
    );
    let mut w = dfs.create(INPUT).unwrap();
    for i in 0..BLOCKS * LINES_PER_BLOCK {
        w.write_line(&format!("{i:0>width$}", width = LINE_BYTES - 1));
    }
    w.seal().unwrap();
    assert_eq!(dfs.blocks(INPUT).unwrap().len(), BLOCKS);
    (disks, dfs)
}

fn cluster(disks: &[Disk], dfs: &Dfs, sched: SchedMode) -> Cluster {
    let mut config = ClusterConfig::local(NODES, 1);
    config.runtime.sched = sched;
    Cluster::with_substrates(config, disks.to_vec(), dfs.clone())
}

/// Line → (line number mod 7, 1), after a fixed 200 µs of CPU per
/// record (2 ms per block against 10 ms of device time), summed.
fn run(cluster: &Cluster, tracer: Tracer) -> Vec<(u64, u64)> {
    let mut job = JobBuilder::new("read-ahead");
    let loader = job.add_loader("text", typed::dfs_line_loader(INPUT));
    let map = job.add_map(
        "burn",
        typed::map_fn(|_offset: u64, line: String, out: &mut Emitter| {
            let start = Instant::now();
            while start.elapsed() < Duration::from_micros(200) {
                std::hint::spin_loop();
            }
            let n: u64 = line.parse().expect("a number");
            out.emit_t(0, &(n % 7), &1u64);
        }),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    job.connect(loader, map, Exchange::Local);
    job.connect(map, sum, Exchange::Hash);
    job.capture_output(sum);
    let opts = RunOptions {
        tracer,
        ..Default::default()
    };
    let result = cluster.run_with(job.build().unwrap(), &opts).unwrap();
    let mut out = result.typed_output::<u64, u64>(sum);
    out.sort();
    out
}

fn read_delta(after: DiskMetrics, before: DiskMetrics) -> (u64, u64) {
    (
        after.read_ops - before.read_ops,
        after.bytes_read - before.bytes_read,
    )
}

#[test]
fn every_split_is_read_ahead_of_the_worker_and_counted_once() {
    let (disks, dfs) = substrates();
    for sched in [
        SchedMode::WorkStealing,
        SchedMode::Deterministic { seed: 11 },
    ] {
        let cluster = cluster(&disks, &dfs, sched);
        let sink = Arc::new(OrderSink::default());
        let before: Vec<DiskMetrics> = disks.iter().map(Disk::metrics).collect();
        run(&cluster, Tracer::new(sink.clone()));
        let events = sink.0.lock().unwrap();
        for node in 0..NODES {
            let splits = BLOCKS / NODES;
            let (mut submitted, mut ended) = (0usize, 0usize);
            for ev in events.iter().filter(|e| e.node as usize == node) {
                match ev.kind {
                    EventKind::DiskRead { .. } => {
                        submitted += 1;
                        assert!(
                            submitted - ended <= MAX_OUTSTANDING,
                            "{sched:?} node {node}: {submitted} reads submitted, \
                             {ended} splits done"
                        );
                    }
                    EventKind::TaskEnd {
                        task: TaskKind::LoaderSplit,
                        ..
                    } => {
                        ended += 1;
                        // The next split's read was on the device
                        // before this split's task finished.
                        assert!(
                            submitted >= (ended + 1).min(splits),
                            "{sched:?} node {node}: split {ended} ended with \
                             {submitted} reads submitted"
                        );
                    }
                    _ => {}
                }
            }
            assert_eq!((submitted, ended), (splits, splits), "{sched:?}");
            // Exactly the demand-read counts: each block once.
            assert_eq!(
                read_delta(disks[node].metrics(), before[node]),
                (
                    splits as u64,
                    (splits * LINES_PER_BLOCK * LINE_BYTES) as u64
                ),
                "{sched:?} node {node}"
            );
        }
    }
}

#[test]
fn output_is_the_same_under_every_scheduler() {
    let (disks, dfs) = substrates();
    let reference = run(
        &cluster(&disks, &dfs, SchedMode::WorkStealing),
        Tracer::disabled(),
    );
    let total: u64 = reference.iter().map(|(_, n)| n).sum();
    assert_eq!(total as usize, BLOCKS * LINES_PER_BLOCK);
    for seed in [1, 2015, 7] {
        let det = cluster(&disks, &dfs, SchedMode::Deterministic { seed });
        assert_eq!(run(&det, Tracer::disabled()), reference, "seed {seed}");
    }
}
