//! Cross-crate integration through the `hamr` facade: the whole stack
//! (codec → substrates → engines → workloads) exercised as a user
//! would, plus shape checks the evaluation relies on.

use hamr::core::{typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder};
use hamr::workloads::{Benchmark, Env, SimParams};

#[test]
fn facade_reexports_compose() {
    // Every subsystem reachable through the facade.
    assert!(hamr::codec::partition(b"key", 4) < 4);
    let disk = hamr::simdisk::Disk::new(hamr::simdisk::DiskConfig::instant());
    disk.write_all("f", b"data").unwrap();
    let dfs = hamr::dfs::Dfs::in_memory(2);
    dfs.create("x").unwrap().seal().unwrap();
    let kv = hamr::kvstore::KvStore::new(2);
    kv.put(bytes::Bytes::from("k"), bytes::Bytes::from("v"));
    assert_eq!(kv.total_len(), 1);
    assert!(!hamr::VERSION.is_empty());
}

#[test]
fn hamr_job_via_facade() {
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let mut job = JobBuilder::new("facade");
    let loader = job.add_loader(
        "nums",
        typed::pairs_loader((0..100u64).map(|i| (i, i % 10)).collect::<Vec<_>>()),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    job.connect(loader, sum, Exchange::Hash);
    job.capture_output(sum);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let total: u64 = result
        .typed_output::<u64, u64>(sum)
        .iter()
        .map(|(_, v)| v)
        .sum();
    assert_eq!(total, (0..100u64).map(|i| i % 10).sum());
}

/// A shuffled record costs its lengths, key and value on the fabric —
/// not the 8-byte key hash that used to ride in front of each one. The
/// loader deals item `i` to node `i % 2` and the Hash edge sends it to
/// `partition(key, 2)`, so the records that cross the fabric are known;
/// the whole shuffle (bin headers and control messages included) must
/// come in under what their hashes alone once weighed.
#[test]
fn shuffled_records_carry_no_hash_on_the_wire() {
    use hamr::codec::{partition, Codec};
    let nodes = 2;
    let pairs: Vec<(u64, u64)> = (0..4000u64).map(|i| (i, i % 10)).collect();
    let remote = pairs
        .iter()
        .enumerate()
        .filter(|(i, (k, _))| partition(&k.to_bytes(), nodes) != i % nodes)
        .count() as u64;
    assert!(remote > 1000, "the job must really shuffle ({remote})");

    let cluster = Cluster::new(ClusterConfig::local(nodes, 2));
    let mut job = JobBuilder::new("facade-wire");
    let loader = job.add_loader("nums", typed::pairs_loader(pairs.clone()));
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect(loader, sum, Exchange::Hash);
    job.capture_output(sum);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let mut out = result.typed_output::<u64, u64>(sum);
    out.sort();
    assert_eq!(out, pairs);

    let shuffled = result.metrics.shuffled_bytes;
    assert!(
        shuffled > remote * 3,
        "a record is at least 3 B ({shuffled})"
    );
    assert!(
        shuffled < remote * 8,
        "{shuffled} B shuffled for {remote} remote records: the hash alone was {} B",
        remote * 8
    );
}

#[test]
fn mapreduce_job_via_facade() {
    let cluster = hamr::mapred::MrCluster::in_memory(2, 2);
    let mut w = cluster.dfs().create("in.txt").unwrap();
    w.write_line("x y x");
    w.seal().unwrap();
    let job = hamr::mapred::JobConf::new(
        "wc",
        vec!["in.txt".into()],
        "out",
        std::sync::Arc::new(hamr::mapred::line_map_fn(|_, line, out| {
            for word in line.split_whitespace() {
                out.emit_t(&word.to_string(), &1u64);
            }
        })),
        std::sync::Arc::new(hamr::mapred::reduce_fn(
            |k: String, vs: Vec<u64>, out: &mut hamr::mapred::ReduceOutput| {
                out.emit_t(&k, &vs.iter().sum::<u64>());
            },
        )),
    );
    let stats = cluster.run(&job).unwrap();
    assert_eq!(stats.map_records_out, 3);
    assert_eq!(stats.groups, 2);
}

/// The headline shape claims of the evaluation, verified on a small
/// *timed* environment: HAMR beats the baseline on a complex workload;
/// the skewed workload's shuffle concentrates on at most 5 nodes.
#[test]
fn evaluation_shape_holds_at_small_scale() {
    let params = SimParams::paper_scaled().with_scale(0.1);
    // Complex/iterative: PageRank — HAMR must win.
    let env = Env::new(params.clone());
    let pr = hamr::workloads::pagerank::PageRank {
        pages: 3_000,
        max_out_links: 8,
        iterations: 3,
        resident: true,
    };
    pr.seed(&env).unwrap();
    let hamr_t = pr.run_hamr(&env).unwrap();
    let mr_t = pr.run_mapred(&env).unwrap();
    assert_eq!(hamr_t.checksum, mr_t.checksum);
    assert!(
        mr_t.elapsed > hamr_t.elapsed,
        "PageRank: expected HAMR to win (hamr {:?} vs mapred {:?})",
        hamr_t.elapsed,
        mr_t.elapsed
    );
}

#[test]
fn skewed_shuffle_concentrates_on_few_nodes() {
    // HistogramRatings' 5-key space must land on <= 5 of 8 nodes.
    let env = Env::test(8, 2);
    let hr = hamr::workloads::histogram_ratings::HistogramRatings {
        movies: 2_000,
        users: 500,
        max_ratings_per_movie: 10,
    };
    hr.seed(&env).unwrap();
    let out = hr.run_hamr(&env).unwrap();
    assert_eq!(out.records, 5, "five rating keys");
}

#[test]
fn streaming_and_batch_compose_via_facade() {
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let mut job = JobBuilder::new("stream");
    let src = job.add_stream(
        "src",
        hamr::core::stream::bounded_stream(2, |_ctx, _e, out: &mut Emitter| {
            out.emit_t(0, &1u64, &1u64);
        }),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    job.connect(src, sum, Exchange::Hash);
    job.capture_output(sum);
    let result = cluster.run(job.build().unwrap()).unwrap();
    let total: u64 = result
        .typed_output::<u64, u64>(sum)
        .iter()
        .map(|(_, v)| v)
        .sum();
    // 2 nodes x 2 epochs x 1 record.
    assert_eq!(total, 4);
}

/// A text of `pages` pages per node, each one split: the loader reads
/// a page and emits its words.
struct Pages {
    pages: usize,
    vocabulary: u64,
}

impl Pages {
    /// Eight lines, every word of the vocabulary on each.
    fn page(&self, node: usize, index: usize) -> Vec<String> {
        let line = |l: u64| {
            let words = (0..self.vocabulary).map(|w| format!("w{}", (w + l) % self.vocabulary));
            words.collect::<Vec<_>>().join(" ")
        };
        let first = ((node * self.pages + index) * 8) as u64;
        (first..first + 8).map(line).collect()
    }
}

impl hamr::core::Loader for Pages {
    fn split_count(&self, _ctx: &hamr::core::TaskContext) -> usize {
        self.pages
    }
    fn load(&self, ctx: &hamr::core::TaskContext, index: usize, out: &mut Emitter) {
        for line in self.page(ctx.node, index) {
            for w in line.split_whitespace() {
                out.emit_t(0, &w.to_string(), &1u64);
            }
        }
    }
}

/// Combining is node-level: a worker's buffer outlives its tasks, and a
/// window that already holds bins keeps the partials folding instead of
/// shipping each task's keys again. Two one-worker nodes count a
/// 40-word vocabulary, every word on every page, over a link that
/// acknowledges nothing before a second. A node reads its 60 pages
/// in tens of milliseconds, beside other tests or spinning loops too,
/// so the windows stay where its first eight task ends put them, at
/// the low-water mark, until every page is read. The count must equal
/// a sequential one, from a fraction of the records a combiner scoped
/// to one task delivers (every word of every task), and the combine
/// ledger must account for what was delivered.
#[test]
fn duplicates_fold_across_the_tasks_of_a_node() {
    use hamr::core::{RunOptions, SkewConfig, Supervision};
    use std::time::Duration;
    let (nodes, pages, vocabulary) = (2, 60, 40u64);
    let mut config = ClusterConfig::local(nodes, 1);
    // Pinned, so an ambient HAMR_SKEW cannot take the buffers away.
    config.runtime.skew = SkewConfig::default();
    config.net = hamr::simnet::NetConfig {
        latency: Duration::from_millis(500),
        bandwidth: None,
        loopback_latency: Duration::from_millis(500),
    };
    let cluster = Cluster::new(config);
    let mut job = JobBuilder::new("facade-combine");
    let text = job.add_loader("pages", Pages { pages, vocabulary });
    let count = job.add_reduce(
        "count",
        typed::reduce_fn(|k: String, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect_combined(text, count, Exchange::Hash, typed::sum_combiner());
    job.capture_output(count);
    // Audited, and warned of the idle second rather than dumped.
    let audited = RunOptions {
        supervision: Some(Supervision {
            doctor_dir: None,
            ..Default::default()
        }),
        ..Default::default()
    };
    let result = cluster.run_with(job.build().unwrap(), &audited).unwrap();

    let mut sequential = std::collections::BTreeMap::new();
    let source = Pages { pages, vocabulary };
    for node in 0..nodes {
        for line in (0..pages).flat_map(|index| source.page(node, index)) {
            for w in line.split_whitespace() {
                *sequential.entry(w.to_string()).or_insert(0u64) += 1;
            }
        }
    }
    let mut counted = result.typed_output::<String, u64>(count);
    counted.sort();
    assert_eq!(counted, sequential.into_iter().collect::<Vec<_>>());

    // One task per page, and a flush task per node.
    let tasks = result.metrics.flowlets[&text].tasks;
    assert!(tasks >= (nodes * pages) as u64, "{tasks} tasks");
    let delivered = result.metrics.flowlets[&count].records_in;
    assert!(
        delivered < tasks * vocabulary / 4,
        "{delivered} records delivered by {tasks} tasks over {vocabulary} words"
    );
    let report = cluster.last_audit().expect("supervised runs are audited");
    report.check().expect("custody balances");
    let row = report.combines[0];
    let offered = (nodes * pages * 8) as u64 * vocabulary;
    assert_eq!((row.records_in, row.records_out), (offered, delivered));
    // What the loader emitted is still what it reports.
    assert_eq!(
        result.metrics.flowlets[&text].records_out,
        (nodes * pages * 8) as u64 * vocabulary
    );
}

/// There is one answer to a hot key: its records fold on the node that
/// produced them, and what is left travels to the key's hash home like
/// any other record. Every node's map emits one key 10,000 times per
/// split; the ledger of a supervised run under the default
/// configuration must show the shuffle edge delivering to
/// `hash % nodes` and to no other node, and the sum must be the
/// combiner-free engine's.
#[test]
fn a_hot_key_travels_only_to_its_hash_home() {
    use hamr::codec::{partition, Codec};
    use hamr::core::{RunOptions, SkewConfig, Supervision};
    use hamr::trace::AuditStage;
    const NODES: usize = 4;
    const HOT: u64 = 7;
    const EMITS: u64 = 10_000;
    /// Edges are numbered in `connect` order.
    const SHUFFLE: u32 = 1;
    let run = |skew: SkewConfig| {
        let mut config = ClusterConfig::local(NODES, 2);
        // Pinned, so an ambient HAMR_SKEW cannot change what runs.
        config.runtime.skew = skew;
        let cluster = Cluster::new(config);
        let mut job = JobBuilder::new("facade-hot-key");
        // One split per node, one record each.
        let seeds = job.add_loader(
            "seeds",
            typed::pairs_loader((0..NODES as u64).map(|n| (n, n)).collect::<Vec<_>>()),
        );
        let hot = job.add_map(
            "hot",
            typed::map_fn(|_: u64, _: u64, out: &mut Emitter| {
                for _ in 0..EMITS {
                    out.emit_t(0, &HOT, &1u64);
                }
            }),
        );
        let sum = job.add_reduce(
            "sum",
            typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
                out.output_t(&k, &vs.sum::<u64>());
            }),
        );
        job.connect(seeds, hot, Exchange::Local);
        job.connect_combined(hot, sum, Exchange::Hash, typed::sum_combiner());
        job.capture_output(sum);
        let supervised = RunOptions {
            supervision: Some(Supervision::default()),
            ..Default::default()
        };
        let result = cluster.run_with(job.build().unwrap(), &supervised).unwrap();
        let report = cluster.last_audit().expect("supervised runs are audited");
        report.check().expect("custody balances");
        (result.typed_output::<u64, u64>(sum), report)
    };
    let (output, report) = run(SkewConfig::default());
    assert_eq!(output, vec![(HOT, NODES as u64 * EMITS)]);
    assert_eq!(output, run(SkewConfig::off()).0);

    let home = partition(&HOT.to_bytes(), NODES) as u32;
    let delivered = |dst: u32| -> u64 {
        let rows = report.rows.iter();
        rows.filter(|r| r.edge == SHUFFLE && r.dst == dst)
            .map(|r| r.stage(AuditStage::Deliver).records)
            .sum()
    };
    for dst in 0..NODES as u32 {
        if dst == home {
            assert!(delivered(dst) >= NODES as u64, "{}", delivered(dst));
        } else {
            assert_eq!(delivered(dst), 0, "hot-key records reached node {dst}");
        }
    }
}

/// Bandwidth of the modeled disks in the two device tests below.
const DISK_BANDWIDTH: u64 = 1_000_000;

/// Two one-worker nodes over `disk`s holding `in.txt`: 20 unreplicated
/// blocks of 15 lines, 20 ms of a modeled disk's time each.
fn cluster_with_input_on(disk: hamr::simdisk::DiskConfig) -> Cluster {
    let mut config = ClusterConfig::local(2, 1);
    config.disk = disk;
    config.dfs = hamr::dfs::DfsConfig {
        block_size: 20_000,
        replication: 1,
    };
    let cluster = Cluster::new(config);
    let mut w = cluster.dfs().create("in.txt").unwrap();
    for i in 0..20 * 15 {
        w.write_line(&format!("{i:0>1332}"));
    }
    w.seal().unwrap();
    cluster
}

/// Count `in.txt`'s lines after `burn` of CPU on each. Returns the
/// job's wall and the time workers spent inside loader tasks.
fn count_lines(
    cluster: &Cluster,
    burn: std::time::Duration,
) -> (std::time::Duration, std::time::Duration) {
    use std::time::Instant;
    let mut job = JobBuilder::new("overlap");
    let loader = job.add_loader("text", typed::dfs_line_loader("in.txt"));
    let map = job.add_map(
        "burn",
        typed::map_fn(move |_offset: u64, _line: String, out: &mut Emitter| {
            let start = Instant::now();
            while start.elapsed() < burn {
                std::hint::spin_loop();
            }
            out.emit_t(0, &0u64, &1u64);
        }),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
    job.connect(loader, map, Exchange::Local);
    job.connect(map, sum, Exchange::Hash);
    job.capture_output(sum);
    let start = Instant::now();
    let result = cluster.run(job.build().unwrap()).unwrap();
    let wall = start.elapsed();
    assert_eq!(result.typed_output::<u64, u64>(sum), vec![(0, 300)]);
    (wall, result.metrics.flowlets[&loader].busy)
}

/// Device time and CPU time overlap: a loader split's disk read is on
/// the device while the node's one worker computes on the previous
/// split, so the job's wall is below the two laid end to end. Both
/// addends are measured separately — the device's from its own byte
/// counter, the CPU's on an instant disk — and each wall is the fastest
/// of five interleaved runs, so a burst on the host only widens the
/// margin it has to cross (serial is 350 ms a node, overlapped 270).
#[test]
fn device_time_and_cpu_time_overlap() {
    use hamr::simdisk::DiskConfig;
    use std::time::Duration;
    // 15 ms of CPU for each block's 20 ms of device.
    let burn = Duration::from_millis(1);
    let modeled = cluster_with_input_on(DiskConfig::modeled(DISK_BANDWIDTH, Duration::ZERO));
    let instant = cluster_with_input_on(DiskConfig::instant());
    let read_before = modeled.disk(0).metrics().bytes_read;
    let (mut wall, mut cpu) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        wall = wall.min(count_lines(&modeled, burn).0);
        cpu = cpu.min(count_lines(&instant, burn).0);
    }
    let read = modeled.disk(0).metrics().bytes_read - read_before;
    let device = Duration::from_secs_f64(read as f64 / 5.0 / DISK_BANDWIDTH as f64);
    assert!(device >= Duration::from_millis(190), "{device:?}");
    assert!(wall >= device, "one spindle: {wall:?} < {device:?}");
    assert!(
        wall < device + cpu,
        "no overlap: wall {wall:?} >= device {device:?} + cpu {cpu:?}"
    );
}

/// A split fires when its block has arrived, so no worker sleeps on the
/// device: what the loader's tasks cost is the CPU of parsing lines, a
/// small part of the device time of the blocks they parsed. Dispatched
/// at admission they would hold each node's only worker for all of it.
#[test]
fn no_worker_waits_for_the_device() {
    use hamr::simdisk::DiskConfig;
    use std::time::Duration;
    let cluster = cluster_with_input_on(DiskConfig::modeled(DISK_BANDWIDTH, Duration::ZERO));
    let (_, loader_busy) = count_lines(&cluster, Duration::ZERO);
    let read: u64 = (0..2).map(|n| cluster.disk(n).metrics().bytes_read).sum();
    let device = Duration::from_secs_f64(read as f64 / DISK_BANDWIDTH as f64);
    assert!(device >= Duration::from_millis(380), "{device:?}");
    assert!(
        loader_busy < device / 2,
        "{loader_busy:?} inside loader tasks for {device:?} of device time"
    );
}

/// Gauges are not an option of the run: a plain `Cluster::run` leaves
/// `workers` = threads per node in the registry, and every level the
/// job raised while it ran (busy workers, queued, deferred and pending
/// bins, grouped reduce state) is back at 0 when it returns.
#[test]
fn plain_run_publishes_live_gauges() {
    use hamr::trace::{Labels, SampleValue};
    let (nodes, threads) = (2u32, 3);
    let cluster = Cluster::new(ClusterConfig::local(nodes as usize, threads));
    let mut job = JobBuilder::new("facade-gauges");
    let loader = job.add_loader(
        "nums",
        typed::pairs_loader((0..5000u64).map(|i| (i, i % 10)).collect::<Vec<_>>()),
    );
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: typed::Values<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.sum::<u64>());
        }),
    );
    job.connect(loader, sum, Exchange::Hash);
    job.capture_output(sum);
    let result = cluster.run(job.build().unwrap()).unwrap();
    assert_eq!(result.typed_output::<u64, u64>(sum).len(), 5000);

    let snap = cluster.registry().snapshot();
    let gauge = |name: &str, labels: Labels| match snap.get(name, &labels.engine("hamr")) {
        Some(SampleValue::Gauge(v)) => *v,
        other => panic!("{name}: expected a gauge, got {other:?}"),
    };
    for node in 0..nodes {
        let on_node = || Labels::new().node(node);
        assert_eq!(gauge("workers", on_node()), threads as i64);
        for level in [
            "workers_busy",
            "splits_awaiting_read",
            "deferred_bins",
            "pending_bin_bytes",
        ] {
            assert_eq!(gauge(level, on_node()), 0, "{level} on node {node}");
        }
        for flowlet in [loader, sum] {
            let depth = gauge("queue_depth", on_node().flowlet(flowlet as u32));
            assert_eq!(depth, 0, "queue_depth of flowlet {flowlet} on node {node}");
        }
        let grouped = gauge("reduce_resident_bytes", on_node().flowlet(sum as u32));
        assert_eq!(grouped, 0, "reduce state on node {node}");
    }
}
