//! Call loops: tight single-threaded loops into each crate's public
//! functions, so a layer has a cost on file that no scheduling or
//! throttling noise touches. Every metric is `WARMUP_BATCHES` untimed
//! batches followed by `TIMED_BATCHES` timed ones; the harness reports
//! the median batch.

use crate::spans::Recorder;
use bytes::Bytes;
use hamr_codec::{stable_hash, Codec, Frame, FrameBuilder};
use hamr_core::{typed, Emitter, Exchange, JobBuilder};
use hamr_dfs::Dfs;
use hamr_kvstore::KvStore;
use hamr_mapred::{line_map_fn, reduce_fn, JobConf, ReduceOutput};
use hamr_simdisk::{Disk, DiskConfig};
use hamr_simnet::{Fabric, NetConfig, Payload};
use hamr_trace::{JournalConfig, JournalRecord, Labels, MetricsRegistry, SketchSet};
use hamr_workloads::{Env, SimParams};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NS: fn(f64) -> f64 = |ns| ns;
const US: fn(f64) -> f64 = |ns| ns * 1e-3;
const MS: fn(f64) -> f64 = |ns| ns * 1e-6;
/// Nanoseconds per byte to MB/s.
const MB_PER_S: fn(f64) -> f64 = |ns| 1e3 / ns;

pub const WARMUP_BATCHES: usize = 3;
pub const TIMED_BATCHES: usize = 10;

/// One call-loop metric: its samples are one value per timed batch.
pub struct CallMetric {
    pub name: &'static str,
    pub samples: Vec<f64>,
}

/// Run `batch` for the warm-up and timed rounds and return each timed
/// batch's wall in nanoseconds. `batch` returns how many operations it
/// performed; the per-batch result is divided by it.
pub fn time_batches(
    rec: &Recorder,
    name: &'static str,
    mut batch: impl FnMut() -> u64,
) -> Vec<f64> {
    rec.span(name, || {
        for _ in 0..WARMUP_BATCHES {
            batch();
        }
        (0..TIMED_BATCHES)
            .map(|_| {
                let start = Instant::now();
                let ops = batch();
                start.elapsed().as_nanos() as f64 / ops.max(1) as f64
            })
            .collect()
    })
}

struct Msg(Bytes);

impl Payload for Msg {
    fn wire_size(&self) -> usize {
        self.0.len()
    }
}

const KEYS: usize = 4096;
const FRAME_RECORDS: usize = 1024;
const FRAMES: usize = 32;

fn word_keys() -> Vec<String> {
    (0..KEYS).map(|i| format!("w{i}")).collect()
}

fn build_frame(keys: &[String], hashes: &[u64], offset: usize, value: &[u8]) -> Frame {
    let mut b = FrameBuilder::new();
    for i in 0..FRAME_RECORDS {
        let k = (offset + i) % keys.len();
        b.push(hashes[k], keys[k].as_bytes(), value);
    }
    b.freeze()
}

/// Every call-loop metric, in the order of the README's table.
/// `scratch` is a directory the journal loop may write under.
pub fn run_all(rec: &Recorder, threads_per_node: usize, scratch: &Path) -> Vec<CallMetric> {
    let mut out = Vec::new();
    // Time one metric's loop and file its samples; `to_unit` turns
    // nanoseconds per operation into the metric's unit.
    let mut call = |name: &'static str, to_unit: fn(f64) -> f64, batch: &mut dyn FnMut() -> u64| {
        let samples = time_batches(rec, name, batch)
            .into_iter()
            .map(to_unit)
            .collect();
        out.push(CallMetric { name, samples });
    };

    let keys = word_keys();
    let hashes: Vec<u64> = keys.iter().map(|k| stable_hash(k.as_bytes())).collect();
    let one = 1u64.to_bytes();
    let frames: Vec<Frame> = (0..FRAMES)
        .map(|f| build_frame(&keys, &hashes, f * 97, &one))
        .collect();
    let frame_ops = (FRAMES * FRAME_RECORDS) as u64;

    // codec
    call("codec.frame_push_ns", NS, &mut || {
        for f in 0..FRAMES {
            black_box(build_frame(&keys, &hashes, f * 97, &one));
        }
        frame_ops
    });
    call("codec.frame_iter_ns", NS, &mut || {
        for frame in &frames {
            for entry in frame.iter() {
                black_box(entry);
            }
        }
        frame_ops
    });
    call("codec.frame_parse_ns", NS, &mut || {
        for frame in &frames {
            black_box(Frame::parse(frame.data().clone()).expect("own frame parses"));
        }
        frame_ops
    });
    call("codec.stable_hash_ns", NS, &mut || {
        for _ in 0..8 {
            for k in &keys {
                black_box(stable_hash(black_box(k.as_bytes())));
            }
        }
        8 * KEYS as u64
    });
    let mut buf = Vec::with_capacity(64);
    call("codec.encode_kv_ns", NS, &mut || {
        for _ in 0..8 {
            for k in &keys {
                buf.clear();
                k.encode(&mut buf);
                1u64.encode(&mut buf);
                black_box(&buf);
            }
        }
        8 * KEYS as u64
    });

    // kvstore
    let kv = KvStore::new(2);
    let kv_keys: Vec<Bytes> = keys
        .iter()
        .map(|k| Bytes::from(k.clone().into_bytes()))
        .collect();
    let value = Bytes::from(vec![7u8; 64]);
    call("kvstore.put_ns", NS, &mut || {
        for k in &kv_keys {
            black_box(kv.put(k.clone(), value.clone()));
        }
        KEYS as u64
    });
    call("kvstore.get_ns", NS, &mut || {
        for k in &kv_keys {
            black_box(kv.get(k));
        }
        KEYS as u64
    });

    // simnet
    let fabric: Fabric<Msg> = Fabric::new(2, NetConfig::instant());
    let rx = fabric.receiver(1).expect("fresh fabric");
    let kib = Bytes::from(vec![0u8; 1024]);
    call("simnet.send_ns", NS, &mut || {
        for _ in 0..2048 {
            fabric.send(0, 1, Msg(kib.clone())).expect("send");
            black_box(rx.recv().expect("recv"));
        }
        2048
    });
    fabric.shutdown();
    // Achieved rate on one modeled 2 MB/s link; the "operation" is a byte.
    const BURST_MSGS: usize = 8;
    const BURST_MSG_BYTES: usize = 16 << 10;
    let link: Fabric<Msg> = Fabric::new(2, NetConfig::modeled(Duration::from_micros(100), 2 << 20));
    let link_rx = link.receiver(1).expect("fresh fabric");
    let chunk = Bytes::from(vec![0u8; BURST_MSG_BYTES]);
    call("simnet.modeled_mb_s", MB_PER_S, &mut || {
        for _ in 0..BURST_MSGS {
            link.send(0, 1, Msg(chunk.clone())).expect("send");
        }
        for _ in 0..BURST_MSGS {
            black_box(link_rx.recv().expect("recv"));
        }
        (BURST_MSGS * BURST_MSG_BYTES) as u64
    });
    link.shutdown();

    // simdisk
    const FILE_KIB: usize = 256;
    let disk = Disk::new(DiskConfig::instant());
    let block = vec![3u8; FILE_KIB << 10];
    call("simdisk.write_ns_per_kib", NS, &mut || {
        for i in 0..8 {
            // Files are write-once.
            disk.delete(&format!("f{i}"));
            disk.write_all(&format!("f{i}"), &block).expect("write");
        }
        8 * FILE_KIB as u64
    });
    call("simdisk.read_ns_per_kib", NS, &mut || {
        for i in 0..8 {
            black_box(disk.open(&format!("f{i}")).expect("open").read_to_end());
        }
        8 * FILE_KIB as u64
    });
    let slow = Disk::new(DiskConfig::modeled(6 << 20, Duration::from_micros(150)));
    call("simdisk.modeled_mb_s", MB_PER_S, &mut || {
        slow.delete("burst");
        slow.write_all("burst", &block[..128 << 10]).expect("write");
        128 << 10
    });

    // dfs
    const LINES: usize = 8192;
    let dfs = Dfs::in_memory(2);
    let line = "w1 w22 w333 w4 w55 w666 w7 w88 w999 w10";
    call("dfs.write_line_ns", NS, &mut || {
        let mut w = dfs.create("calls/lines.txt").expect("create");
        for _ in 0..LINES {
            w.write_line(line);
        }
        w.seal().expect("seal");
        dfs.delete("calls/lines.txt").expect("delete");
        LINES as u64
    });
    let mut w = dfs.create("calls/blocks.txt").expect("create");
    for _ in 0..64 * LINES {
        w.write_line(line);
    }
    w.seal().expect("seal");
    let blocks = dfs.blocks("calls/blocks.txt").expect("blocks").len();
    call("dfs.read_block_us", US, &mut || {
        for b in 0..blocks {
            black_box(
                dfs.read_block("calls/blocks.txt", b, Some(b % 2))
                    .expect("read"),
            );
        }
        blocks as u64
    });

    // core: the fixed cost of one job, whatever it computes.
    let instant = Env::new(SimParams::test(2, threads_per_node));
    call("core.job_floor_ms", MS, &mut || {
        for _ in 0..4 {
            let mut job = JobBuilder::new("floor");
            let loader = job.add_loader(
                "One",
                typed::gen_loader(
                    |ctx| usize::from(ctx.node == 0),
                    |_, _, out: &mut Emitter| out.emit_all_t(&0u64, &1u64),
                ),
            );
            let map = job.add_map(
                "Id",
                typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.output_t(&k, &v)),
            );
            job.connect(loader, map, Exchange::Local);
            job.capture_output(map);
            let result = instant
                .hamr
                .run(job.build().expect("floor graph"))
                .expect("floor job");
            assert_eq!(result.output(map).len(), 1);
        }
        4
    });

    // mapred: an empty job still pays the modeled start-up.
    let modeled = Env::new(SimParams {
        nodes: 2,
        threads_per_node,
        ..SimParams::paper_scaled()
    });
    modeled
        .seed_text("calls/empty.txt", &[])
        .expect("seed empty input");
    let mut run = 0u32;
    call("mapred.job_floor_ms", MS, &mut || {
        run += 1;
        let conf = JobConf::new(
            "floor",
            vec!["calls/empty.txt".to_string()],
            format!("calls/out-{run}"),
            Arc::new(line_map_fn(|_off, _line, _out| {})),
            Arc::new(reduce_fn(
                |_k: u64, _vs: Vec<u64>, _out: &mut ReduceOutput| {},
            )),
        );
        modeled.mr.run(&conf).expect("floor job");
        1
    });

    // trace: the planes that are on by default.
    let mut sketch = SketchSet::default();
    call("trace.sketch_observe_ns", NS, &mut || {
        for _ in 0..8 {
            for (k, &h) in keys.iter().zip(&hashes) {
                sketch.observe(h, k.as_bytes(), 1);
            }
        }
        8 * KEYS as u64
    });
    let mut acc = SketchSet::default();
    call("trace.sketch_merge_us", US, &mut || {
        for _ in 0..64 {
            acc.merge(black_box(&sketch));
        }
        64
    });
    // Look-up plus add: what `JobMetrics::publish` pays per series.
    let registry = MetricsRegistry::new();
    call("trace.registry_add_ns", NS, &mut || {
        for i in 0..4096u32 {
            registry
                .counter("calls_total", Labels::new().engine("hamr").flowlet(i % 8))
                .add(1);
        }
        4096
    });
    let dir = scratch.join("journal");
    let journal = hamr_trace::Journal::open(JournalConfig::new(&dir)).expect("open journal");
    let record = JournalRecord::JobStart {
        job: "calls".into(),
        engine: "hamr".into(),
        t_us: 0,
    };
    call("trace.journal_append_ns", NS, &mut || {
        for _ in 0..2048 {
            journal.append(&record);
        }
        journal.flush();
        2048
    });
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);

    out
}
