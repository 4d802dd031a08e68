//! Loader read-ahead and the firing rule for sources, seen from outside
//! the engine: a split's disk read is submitted when the split could be
//! admitted — the next split's with it — and the split is dispatched
//! when its input has arrived, so the device works while a worker
//! computes and no worker ever sleeps on the device. A DFS line loader's
//! split is one packet of a block: on blocks of several packets, each
//! fires when its own bytes are in, while the block is still one read.
//! Every assertion is on the *order* of trace events, on instants the
//! engine itself handed out, or on counters — never on a wall-time
//! threshold.

use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, Loader, RunOptions, SchedMode,
    TaskContext,
};
use hamr_dfs::{Dfs, DfsConfig};
use hamr_simdisk::{Disk, DiskConfig, DiskMetrics};
use hamr_trace::{EventKind, TaskKind, TraceEvent, TraceSink, Tracer};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const NODES: usize = 2;
const BLOCKS: usize = 16;
const LINES_PER_BLOCK: usize = 10;
const LINE_BYTES: usize = 1000; // with its newline
const INPUT: &str = "in.txt";
/// `LOADER_CONCURRENCY` + 1: the admitted splits plus the one ahead.
const MAX_OUTSTANDING: usize = 3;

/// Both execution backends; the seed picks one replay order.
const SCHEDS: [SchedMode; 2] = [
    SchedMode::WorkStealing,
    SchedMode::Deterministic { seed: 11 },
];

/// Keeps events in the order `record` was called: one total order
/// across threads, where the ring sink only has per-lane order.
#[derive(Default)]
struct OrderSink(Mutex<Vec<TraceEvent>>);

impl TraceSink for OrderSink {
    fn record(&self, ev: TraceEvent) {
        self.0.lock().unwrap().push(ev);
    }
}

/// The DFS line loader with a clock on both sides of the firing rule:
/// what `prepare(k)` answered and when `load(k)` began, by (node, split);
/// and, beside each answer, when the disk says the whole read of the
/// split's block ends.
struct Clocked {
    inner: typed::DfsLineLoader,
    ready_at: Mutex<HashMap<(usize, usize), Option<Instant>>>,
    loaded_at: Mutex<HashMap<(usize, usize), Instant>>,
    block_ready_at: Mutex<HashMap<(usize, usize), Option<Instant>>>,
}

impl Clocked {
    fn new() -> Self {
        Clocked {
            inner: typed::dfs_line_loader(INPUT),
            ready_at: Mutex::default(),
            loaded_at: Mutex::default(),
            block_ready_at: Mutex::default(),
        }
    }
}

/// Node `node`'s splits of `INPUT`, in its numbering: (block, packet
/// range), the blocks it holds the primary replica of, packet by packet.
fn local_packets(dfs: &Dfs, node: usize) -> Vec<(usize, std::ops::Range<usize>)> {
    let blocks = dfs.blocks(INPUT).unwrap();
    let local = blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| b.replicas[0] == node);
    local
        .flat_map(|(i, b)| b.packet_ranges().map(move |r| (i, r)))
        .collect()
}

impl Loader for Clocked {
    fn split_count(&self, ctx: &TaskContext) -> usize {
        self.inner.split_count(ctx)
    }
    fn prepare(&self, ctx: &TaskContext, index: usize) -> Option<Instant> {
        let ready_at = self.inner.prepare(ctx, index);
        let earlier = self
            .ready_at
            .lock()
            .unwrap()
            .insert((ctx.node, index), ready_at);
        assert!(earlier.is_none(), "split {index} prepared twice");
        // The split's block is booked now, and its packet unread: a
        // second read-ahead returns that booking's end and books nothing.
        let (block, _) = local_packets(&ctx.dfs, ctx.node)[index].clone();
        let block_ready_at = ctx.dfs.read_ahead(INPUT, block, Some(ctx.node));
        self.block_ready_at
            .lock()
            .unwrap()
            .insert((ctx.node, index), block_ready_at);
        ready_at
    }
    fn load(&self, ctx: &TaskContext, index: usize, out: &mut Emitter) {
        let now = Instant::now();
        self.loaded_at
            .lock()
            .unwrap()
            .insert((ctx.node, index), now);
        self.inner.load(ctx, index, out)
    }
}

const BANDWIDTH: u64 = 1_000_000;

/// Two disks of `bandwidth` bytes/s (10 ms per 10 KB block at 1 MB/s)
/// under a DFS that spreads sixteen unreplicated blocks round-robin:
/// eight splits per node.
fn substrates(bandwidth: u64) -> (Vec<Disk>, Dfs) {
    substrates_of(bandwidth, BLOCKS, LINES_PER_BLOCK)
}

/// Two disks of `bandwidth` bytes/s under a DFS that spreads `blocks`
/// unreplicated blocks of `lines` 1000-byte lines round-robin.
fn substrates_of(bandwidth: u64, blocks: usize, lines: usize) -> (Vec<Disk>, Dfs) {
    let disks: Vec<Disk> = (0..NODES)
        .map(|_| Disk::new(DiskConfig::modeled(bandwidth, Duration::ZERO)))
        .collect();
    let dfs = Dfs::new(
        disks.clone(),
        DfsConfig {
            block_size: lines * LINE_BYTES,
            replication: 1,
        },
    );
    let mut w = dfs.create(INPUT).unwrap();
    for i in 0..blocks * lines {
        w.write_line(&format!("{i:0>width$}", width = LINE_BYTES - 1));
    }
    w.seal().unwrap();
    assert_eq!(dfs.blocks(INPUT).unwrap().len(), blocks);
    (disks, dfs)
}

fn cluster(disks: &[Disk], dfs: &Dfs, sched: SchedMode) -> Cluster {
    let mut config = ClusterConfig::local(NODES, 1);
    config.runtime.sched = sched;
    Cluster::with_substrates(config, disks.to_vec(), dfs.clone())
}

/// What one run of the job left behind.
struct Run {
    output: Vec<(u64, u64)>,
    /// Σ time workers spent inside `LoaderSplit` tasks, both nodes.
    loader_busy: Duration,
    clocks: Arc<Clocked>,
}

/// Line → (line number mod 7, 1), after a fixed 200 µs of CPU per
/// record (2 ms per block against 10 ms of device time), summed.
fn run(cluster: &Cluster, tracer: Tracer) -> Run {
    let clocks = Arc::new(Clocked::new());
    let mut job = JobBuilder::new("read-ahead");
    let loader = job.add_loader("text", Arc::clone(&clocks));
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
    let mut output = result.typed_output::<u64, u64>(sum);
    output.sort();
    Run {
        output,
        loader_busy: result.metrics.flowlets[&loader].busy,
        clocks,
    }
}

fn read_delta(after: DiskMetrics, before: DiskMetrics) -> (u64, u64) {
    (
        after.read_ops - before.read_ops,
        after.bytes_read - before.bytes_read,
    )
}

/// Exactly the demand-read counts: each of a node's blocks once.
const READS_PER_NODE: (u64, u64) = (
    (BLOCKS / NODES) as u64,
    (BLOCKS / NODES * LINES_PER_BLOCK * LINE_BYTES) as u64,
);

#[test]
fn every_split_is_read_ahead_of_the_worker_and_counted_once() {
    let (disks, dfs) = substrates(BANDWIDTH);
    for sched in SCHEDS {
        let cluster = cluster(&disks, &dfs, sched);
        let sink = Arc::new(OrderSink::default());
        let before: Vec<DiskMetrics> = disks.iter().map(Disk::metrics).collect();
        let ran = run(&cluster, Tracer::new(sink.clone()));
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
            assert_eq!(
                read_delta(disks[node].metrics(), before[node]),
                READS_PER_NODE,
                "{sched:?} node {node}"
            );
        }

        // The firing rule, exact: no `load` began before the instant
        // its `prepare` named, so none slept on the device.
        let ready_at = ran.clocks.ready_at.lock().unwrap();
        let loaded_at = ran.clocks.loaded_at.lock().unwrap();
        assert_eq!((ready_at.len(), loaded_at.len()), (BLOCKS, BLOCKS));
        for (split, loaded) in loaded_at.iter() {
            let ready = ready_at[split].expect("a modeled disk books every read");
            assert!(
                *loaded >= ready,
                "{sched:?} (node, split) {split:?}: loaded {:?} before its block",
                ready - *loaded
            );
        }
        // ... and what the loader's tasks cost is their CPU, a small
        // part of the device time their blocks took (all of it when a
        // split is dispatched at admission).
        let read: u64 = (0..NODES)
            .map(|n| read_delta(disks[n].metrics(), before[n]).1)
            .sum();
        let device = Duration::from_secs_f64(read as f64 / BANDWIDTH as f64);
        assert!(
            ran.loader_busy < device / 2,
            "{sched:?}: {:?} inside loader tasks for {device:?} of device time",
            ran.loader_busy
        );
    }
}

/// On a one-worker node the worker is free while block 1 is on the
/// device, so it maps block 0's bins: the first map task starts before
/// the second split does. Dispatched at admission, split 1 would be
/// ahead of them in the queue and the worker asleep inside it. Blocks
/// take 40 ms here, so only a runtime thread held up for that long
/// between two pumps could reorder the two starts.
#[test]
fn the_worker_maps_a_block_while_the_next_one_is_read() {
    let (disks, dfs) = substrates(BANDWIDTH / 4);
    for sched in SCHEDS {
        let sink = Arc::new(OrderSink::default());
        run(&cluster(&disks, &dfs, sched), Tracer::new(sink.clone()));
        let events = sink.0.lock().unwrap();
        for node in 0..NODES {
            let starts: Vec<TaskKind> = events
                .iter()
                .filter(|e| e.node as usize == node)
                .filter_map(|e| match e.kind {
                    EventKind::TaskStart {
                        task: task @ (TaskKind::LoaderSplit | TaskKind::MapBin),
                        ..
                    } => Some(task),
                    _ => None,
                })
                .take(2)
                .collect();
            assert_eq!(
                starts,
                [TaskKind::LoaderSplit, TaskKind::MapBin],
                "{sched:?} node {node}: split 1 started before any map bin"
            );
        }
    }
}

#[test]
fn output_is_the_same_under_every_scheduler() {
    let (disks, dfs) = substrates(BANDWIDTH);
    let reference = run(
        &cluster(&disks, &dfs, SchedMode::WorkStealing),
        Tracer::disabled(),
    )
    .output;
    let total: u64 = reference.iter().map(|(_, n)| n).sum();
    assert_eq!(total as usize, BLOCKS * LINES_PER_BLOCK);
    for seed in [1, 2015, 7] {
        let det = cluster(&disks, &dfs, SchedMode::Deterministic { seed });
        let before: Vec<DiskMetrics> = disks.iter().map(Disk::metrics).collect();
        assert_eq!(
            run(&det, Tracer::disabled()).output,
            reference,
            "seed {seed}"
        );
        for node in 0..NODES {
            let reads = read_delta(disks[node].metrics(), before[node]);
            assert_eq!(reads, READS_PER_NODE, "seed {seed} node {node}");
        }
    }
}

/// Blocks of four packets — 256 lines of 1000 bytes, 65 lines to a
/// 64 KiB packet — on 4 MB/s disks: 64 ms of device time a block, five
/// blocks a node, more than may be booked at once.
const PACKET_BLOCKS: usize = 10;
const PACKET_LINES: usize = 256;
const PACKETS_PER_BLOCK: usize = 4;
const PACKET_BANDWIDTH: u64 = 4_000_000;

#[test]
fn a_block_of_packets_fires_packet_by_packet_and_is_read_once() {
    let (disks, dfs) = substrates_of(PACKET_BANDWIDTH, PACKET_BLOCKS, PACKET_LINES);
    for block in dfs.blocks(INPUT).unwrap() {
        assert_eq!(block.packets.len(), PACKETS_PER_BLOCK, "{block:?}");
    }
    let mut outputs = Vec::new();
    for sched in SCHEDS {
        let before: Vec<DiskMetrics> = disks.iter().map(Disk::metrics).collect();
        let sink = Arc::new(OrderSink::default());
        let ran = run(&cluster(&disks, &dfs, sched), Tracer::new(sink.clone()));
        let ready_at = ran.clocks.ready_at.lock().unwrap();
        let loaded_at = ran.clocks.loaded_at.lock().unwrap();
        let block_ready_at = ran.clocks.block_ready_at.lock().unwrap();
        let splits = PACKET_BLOCKS * PACKETS_PER_BLOCK;
        assert_eq!((ready_at.len(), loaded_at.len()), (splits, splits));
        let events = sink.0.lock().unwrap();
        for node in 0..NODES {
            // Blocks booked and not yet wholly loaded: the splits'
            // bound, plus the one block booked beyond them. A wholly
            // loaded block has ended all its packets, so `ended /
            // PACKETS_PER_BLOCK` blocks at most are done.
            let (mut submitted, mut ended) = (0usize, 0usize);
            for ev in events.iter().filter(|e| e.node as usize == node) {
                match ev.kind {
                    EventKind::DiskRead { .. } => {
                        submitted += 1;
                        assert!(
                            submitted - ended / PACKETS_PER_BLOCK <= MAX_OUTSTANDING + 1,
                            "{sched:?} node {node}: {submitted} blocks booked, \
                             {ended} packets done"
                        );
                    }
                    EventKind::TaskEnd {
                        task: TaskKind::LoaderSplit,
                        ..
                    } => ended += 1,
                    _ => {}
                }
            }
            assert_eq!(submitted, PACKET_BLOCKS / NODES, "{sched:?} node {node}");
            let packets = local_packets(&dfs, node);
            let at = |k: usize| ready_at[&(node, k)].expect("a modeled disk books every read");
            for (k, (block, range)) in packets.iter().enumerate() {
                // Every packet fires at or after the instant the engine
                // handed out for it.
                let loaded = loaded_at[&(node, k)];
                assert!(loaded >= at(k), "{sched:?} node {node} packet {k} early");
                let block_end = block_ready_at[&(node, k)].expect("booked");
                match packets.get(k + 1) {
                    // Within a block, the instants increase ...
                    Some((next, _)) if next == block => {
                        assert!(at(k) < at(k + 1), "{sched:?} node {node} packet {k}");
                        assert!(at(k) < block_end);
                    }
                    // ... and the last packet's is the block's end.
                    _ => assert_eq!(
                        at(k),
                        block_end,
                        "{sched:?} node {node} block {block} ends at {range:?}"
                    ),
                }
            }
            // Each block is read, and counted, once.
            let blocks = (PACKET_BLOCKS / NODES) as u64;
            assert_eq!(
                read_delta(disks[node].metrics(), before[node]),
                (blocks, blocks * (PACKET_LINES * LINE_BYTES) as u64),
                "{sched:?} node {node}"
            );
        }
        outputs.push(ran.output);
    }
    let total: u64 = outputs[0].iter().map(|(_, n)| n).sum();
    assert_eq!(total as usize, PACKET_BLOCKS * PACKET_LINES);
    assert_eq!(outputs[0], outputs[1], "WorkStealing vs Deterministic");
}
