//! The measuring loop. One process, one job in flight (a closed loop
//! with a single client), the default runtime configuration.
//!
//! * [`run`] measures the end-to-end metrics and records no span. It
//!   sets up [`SETUPS`] times — a fresh `Env`, the seeded input, one
//!   cold HAMR job — for `setup_s`, then runs
//!   interleaved rounds on the last environment until `--seconds` is
//!   used up.
//! * [`layers`] is the traced run: spans around every call into a
//!   layer, the public counters read after each rep, the call loops,
//!   and the dominance check.

use crate::alloc;
use crate::calls;
use crate::catalogue::{Catalogue, MetricDef, Pinned};
use crate::spans::Recorder;
use crate::stats::{log2_bucket_quantile, median, Summary};
use crate::workloads::{threads_per_node, Workload, NODES};
use hamr_core::RuntimeConfig;
use hamr_simdisk::DiskMetrics;
use hamr_trace::{SampleValue, Snapshot, StatsMode};
use hamr_workloads::{BenchOutput, Env, SimParams};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Set-ups per `run`, so `setup_s` has more than one sample.
pub const SETUPS: usize = 3;
/// A run never reports a wall from fewer rounds than this.
pub const MIN_ROUNDS: usize = 2;
/// Rounds of a `--quick` run, whatever `--seconds` says.
pub const QUICK_ROUNDS: usize = 3;
/// Share of `--seconds` a traced run spends on job rounds; the call
/// loops take the rest.
const TRACED_ROUNDS_SHARE: f64 = 0.7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    pub nodes: usize,
    pub threads_per_node: usize,
    pub cores: usize,
}

impl Topology {
    pub fn detect() -> Topology {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Topology {
            nodes: NODES,
            threads_per_node: threads_per_node(cores),
            cores,
        }
    }

    fn workers(&self) -> f64 {
        (self.nodes * self.threads_per_node) as f64
    }
}

pub struct Options<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub topology: Topology,
    pub catalogue: &'a Catalogue,
    pub pinned: &'a [Pinned],
    /// An existing directory; the traced run writes
    /// `trace_<workload>.json` there.
    pub out_dir: &'a Path,
}

/// What one workload produced in one or both modes.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: String,
    pub sizes: String,
    pub jobs_attempted: u64,
    pub jobs_failed: u64,
    pub paper_speedup_x: f64,
    /// Checksum and record count every admitted job produced.
    pub output: Option<(u64, u64)>,
    /// Metric name → summary of its samples. Names are the ones
    /// `BENCHMARK.json` lists.
    pub metrics: BTreeMap<String, Summary>,
    /// Anything that makes the result unusable besides failed jobs.
    pub errors: Vec<String>,
}

/// The job and set-up times are reported as their fastest sample, not
/// their median. Whatever else the host runs only ever adds time, on
/// the builder's shared VM in bursts of tens of seconds, and over ten
/// runs the fastest rep of a run was steadier than the median rep
/// (`benchmark/README.md` has the numbers). Every other metric is
/// reported as its median; the table and `result.json` carry median,
/// quartiles and extremes of all of them.
pub const FASTEST: [&str; 3] = ["setup_s", "hamr_wall_s", "mapred_wall_s"];

/// The one number a metric is reported, gated and compared as.
pub fn reported(metric: &str, summary: &Summary) -> f64 {
    if FASTEST.contains(&metric) {
        summary.min
    } else {
        summary.median
    }
}

impl WorkloadResult {
    pub fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric).map(|s| reported(metric, s))
    }

    /// `mapred_wall_s / hamr_wall_s`, printed beside the paper's value
    /// and never gated.
    pub fn speedup_x(&self) -> Option<f64> {
        Some(self.value("mapred_wall_s")? / self.value("hamr_wall_s")?)
    }

    pub fn ok(&self) -> bool {
        self.jobs_failed == 0 && self.errors.is_empty()
    }

    /// Fold the other mode's result for the same workload into this one.
    pub fn merge(&mut self, other: WorkloadResult) {
        self.jobs_attempted += other.jobs_attempted;
        self.jobs_failed += other.jobs_failed;
        self.metrics.extend(other.metrics);
        self.errors.extend(other.errors);
    }
}

/// Remove every `HAMR_*` variable, so the runtime's defaults are what
/// is measured. Call before the first thread is spawned.
pub fn scrub_env() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("HAMR_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time this process has consumed, user plus system, all threads.
/// `/proc/self/stat` counts the same thing in 10 ms ticks, too coarse
/// for a job that burns half a second.
fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` as 64-bit
    // Linux lays it out, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One job, timed from outside.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    peak_heap_mb: f64,
    allocs: u64,
    out: BenchOutput,
}

fn measure(
    rec: &Recorder,
    span: &'static str,
    job: impl FnOnce() -> Result<BenchOutput, String>,
) -> Result<Rep, String> {
    let live = alloc::reset_peak();
    let allocs = alloc::alloc_count();
    let cpu = cpu_seconds();
    let start = Instant::now();
    let out = rec.span(span, job)?;
    Ok(Rep {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu,
        peak_heap_mb: (alloc::peak_bytes() - live) as f64 / 1e6,
        allocs: alloc::alloc_count() - allocs,
        out,
    })
}

/// Counts jobs and lets through only those with the expected output:
/// the pinned reference when there is one for this seed and shape,
/// otherwise whatever the first job produced — so the engines are
/// always checked against each other.
struct Checker {
    workload: &'static str,
    expected: Option<(u64, u64)>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(w: &Workload, opts: &Options) -> Checker {
        let expected = opts
            .pinned
            .iter()
            .find(|p| p.workload == w.name && p.seed == opts.seed && p.quick == opts.quick)
            .map(|p| (p.checksum, p.records));
        Checker {
            workload: w.name,
            expected,
            attempted: 0,
            failed: 0,
        }
    }

    fn admit(&mut self, rep: Result<Rep, String>) -> Option<Rep> {
        let what = self.workload;
        self.attempted += 1;
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("{what}: job failed: {e}");
                self.failed += 1;
                return None;
            }
        };
        let got = (rep.out.checksum, rep.out.records);
        let want = *self.expected.get_or_insert(got);
        if got != want {
            eprintln!(
                "{what}: checksum {:#018x} over {} records, expected {:#018x} over {}",
                got.0, got.1, want.0, want.1
            );
            self.failed += 1;
            return None;
        }
        Some(rep)
    }
}

/// Samples per metric name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
}

struct SetUp {
    env: Env,
    env_s: f64,
    seed_s: f64,
    warmup_s: f64,
    total_s: f64,
}

/// Fresh environment from `new_env`, seeded input, one cold HAMR job.
fn set_up(
    w: &Workload,
    new_env: impl FnOnce() -> Env,
    rec: &Recorder,
    checker: &mut Checker,
) -> Result<SetUp, String> {
    rec.next_trace();
    rec.span("setup", || {
        let start = Instant::now();
        let env = rec.span("workloads.Env::new", new_env);
        let env_s = start.elapsed().as_secs_f64();
        rec.span("workloads.Benchmark::seed", || w.bench.seed(&env))?;
        let seed_s = start.elapsed().as_secs_f64() - env_s;
        let cold = measure(rec, "workloads.Benchmark::run_hamr", || {
            w.bench.run_hamr(&env)
        });
        let cold = checker.admit(cold).ok_or("the cold HAMR job failed")?;
        Ok(SetUp {
            env,
            env_s,
            seed_s,
            warmup_s: cold.wall_s,
            total_s: start.elapsed().as_secs_f64(),
        })
    })
}

fn finish(
    w: &Workload,
    opts: &Options,
    checker: Checker,
    samples: Samples,
    expect: &[MetricDef],
    mut errors: Vec<String>,
) -> WorkloadResult {
    let mut metrics = BTreeMap::new();
    for (name, values) in samples.0 {
        if opts.catalogue.find(name).is_none() {
            errors.push(format!("{name} is not in BENCHMARK.json"));
        }
        match Summary::of(&values) {
            Some(s) if values.iter().all(|v| v.is_finite()) => {
                metrics.insert(name.to_string(), s);
            }
            _ => errors.push(format!("{name} has a sample that is not a number")),
        }
    }
    if checker.failed == 0 {
        for m in expect {
            if !metrics.contains_key(&m.name) {
                errors.push(format!("{} was not measured", m.name));
            }
        }
    }
    WorkloadResult {
        name: w.name.to_string(),
        sizes: w.sizes.clone(),
        jobs_attempted: checker.attempted,
        jobs_failed: checker.failed,
        paper_speedup_x: w.paper_speedup_x,
        output: checker.expected,
        metrics,
        errors,
    }
}

/// Whether another round still fits the time budget.
fn another_round(
    opts: &Options,
    budget_s: f64,
    rounds: usize,
    start: Instant,
    last_s: f64,
) -> bool {
    if opts.quick {
        return rounds < QUICK_ROUNDS;
    }
    rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() + last_s <= budget_s
}

/// The end-to-end metrics of one workload, no span recorded.
pub fn run(w: &Workload, opts: &Options) -> WorkloadResult {
    let rec = Recorder::new(false);
    let params = w.params(opts.topology.threads_per_node, opts.seed);
    let mut checker = Checker::new(w, opts);
    let mut samples = Samples::default();
    let expect = &opts.catalogue.end_to_end;

    let mut env = None;
    for _ in 0..SETUPS {
        // The previous environment's teardown is not part of a set-up.
        drop(env.take());
        match set_up(w, || Env::new(params.clone()), &rec, &mut checker) {
            Ok(s) => {
                samples.push("setup_s", s.total_s);
                env = Some(s.env);
            }
            Err(e) => return finish(w, opts, checker, samples, expect, vec![e]),
        }
    }
    let env = env.expect("SETUPS > 0");

    let hamr = |checker: &mut Checker, samples: &mut Samples| {
        let rep = measure(&rec, "workloads.Benchmark::run_hamr", || {
            w.bench.run_hamr(&env)
        });
        if let Some(rep) = checker.admit(rep) {
            samples.push("hamr_wall_s", rep.wall_s);
            samples.push("hamr_peak_heap_mb", rep.peak_heap_mb);
        }
    };
    let mapred = |checker: &mut Checker, samples: &mut Samples| {
        let rep = measure(&rec, "workloads.Benchmark::run_mapred", || {
            w.bench.run_mapred(&env)
        });
        if let Some(rep) = checker.admit(rep) {
            samples.push("mapred_wall_s", rep.wall_s);
        }
    };

    // Rounds of `hamr_per_round` HAMR jobs and one mapred job; which
    // engine goes first alternates, so neither always inherits the
    // other's warm caches or freed heap.
    let start = Instant::now();
    let (mut rounds, mut last_s) = (0, 0.0);
    while another_round(opts, opts.seconds, rounds, start, last_s) {
        let round = Instant::now();
        let hamr_first = rounds % 2 == 0;
        if !hamr_first {
            mapred(&mut checker, &mut samples);
        }
        for _ in 0..w.hamr_per_round {
            hamr(&mut checker, &mut samples);
        }
        if hamr_first {
            mapred(&mut checker, &mut samples);
        }
        rounds += 1;
        last_s = round.elapsed().as_secs_f64();
    }
    finish(w, opts, checker, samples, expect, Vec::new())
}

fn counter(delta: &Snapshot, name: &str, engine: &str) -> f64 {
    delta
        .series
        .iter()
        .filter(|s| s.name == name && s.labels.engine.as_deref() == Some(engine))
        .map(|s| match &s.value {
            SampleValue::Counter(v) => *v as f64,
            _ => 0.0,
        })
        .sum()
}

fn merged_buckets(delta: &Snapshot, name: &str, engine: &str) -> Vec<u64> {
    let mut merged: Vec<u64> = Vec::new();
    for s in &delta.series {
        if s.name != name || s.labels.engine.as_deref() != Some(engine) {
            continue;
        }
        if let SampleValue::Histogram(h) = &s.value {
            if merged.len() < h.buckets.len() {
                merged.resize(h.buckets.len(), 0);
            }
            for (m, b) in merged.iter_mut().zip(&h.buckets) {
                *m += b;
            }
        }
    }
    merged
}

/// IO counters summed over the environment's disks; only one engine
/// runs at a time, so a difference of two totals belongs to one job.
fn disk_totals(env: &Env) -> DiskMetrics {
    env.disks
        .iter()
        .map(|d| d.metrics())
        .fold(DiskMetrics::default(), |a, m| DiskMetrics {
            bytes_written: a.bytes_written + m.bytes_written,
            bytes_read: a.bytes_read + m.bytes_read,
            write_ops: a.write_ops + m.write_ops,
            read_ops: a.read_ops + m.read_ops,
        })
}

/// What the public counters moved by while one job ran.
struct Counters {
    registry: Snapshot,
    disk: DiskMetrics,
}

fn counted(
    rec: &Recorder,
    env: &Env,
    span: &'static str,
    job: impl FnOnce() -> Result<BenchOutput, String>,
) -> (Result<Rep, String>, Counters) {
    let before = rec.span("trace.MetricsRegistry::snapshot", || {
        env.hamr.registry().snapshot()
    });
    let disk_before = rec.span("simdisk.Disk::metrics", || disk_totals(env));
    let rep = measure(rec, span, job);
    let disk_after = rec.span("simdisk.Disk::metrics", || disk_totals(env));
    let after = rec.span("trace.MetricsRegistry::snapshot", || {
        env.hamr.registry().snapshot()
    });
    let counters = Counters {
        registry: after.delta(&before),
        disk: DiskMetrics {
            bytes_written: disk_after.bytes_written - disk_before.bytes_written,
            bytes_read: disk_after.bytes_read - disk_before.bytes_read,
            write_ops: disk_after.write_ops - disk_before.write_ops,
            read_ops: disk_after.read_ops - disk_before.read_ops,
        },
    };
    (rep, counters)
}

/// Modeled device time of `disk`'s IO as a share of all disks' wall.
fn disk_busy_share(params: &SimParams, disk: &DiskMetrics, wall_s: f64) -> f64 {
    let bytes = (disk.bytes_read + disk.bytes_written) as f64;
    let ops = (disk.read_ops + disk.write_ops) as f64;
    let transfer = params.disk.bandwidth.map_or(0.0, |bw| bytes / bw as f64);
    (transfer + ops * params.disk.op_latency.as_secs_f64()) / (params.nodes as f64 * wall_s)
}

fn hamr_layer_samples(
    s: &mut Samples,
    rep: &Rep,
    c: &Counters,
    env: &Env,
    rec: &Recorder,
    topo: &Topology,
) {
    let (d, out) = (&c.registry, &rep.out);
    let hamr = |name| counter(d, name, "hamr");
    let records_in = hamr("flowlet_records_in_total");
    let busy_s = hamr("node_busy_us_total") / 1e6;
    s.push("core.tasks", hamr("flowlet_tasks_total"));
    s.push("core.records_in", records_in);
    s.push("core.records_out", hamr("flowlet_records_out_total"));
    s.push("core.bins_out", hamr("flowlet_bins_out_total"));
    s.push("core.busy_s", busy_s);
    s.push("core.util", busy_s / (topo.workers() * rep.wall_s));
    // `busy` counts a task asleep on a throttled disk as busy; the
    // process's CPU time over the same capacity does not.
    s.push("core.cpu_s", rep.cpu_s);
    s.push("core.cpu_share", rep.cpu_s / (topo.workers() * rep.wall_s));
    let latency = merged_buckets(d, "flowlet_task_latency_us", "hamr");
    s.push("core.task_p50_us", log2_bucket_quantile(&latency, 0.50));
    s.push("core.task_p99_us", log2_bucket_quantile(&latency, 0.99));
    s.push(
        "core.allocs_per_rec",
        rep.allocs as f64 / records_in.max(1.0),
    );
    s.push(
        "core.combine_ratio",
        out.combined_records as f64 / out.shuffle_records.max(1) as f64,
    );
    s.push("core.splits_triggered", out.splits_triggered as f64);
    s.push("core.spilled_bytes", hamr("spilled_bytes_total"));

    let shuffled = hamr("shuffled_bytes_total");
    s.push("core.shuffled_bytes", shuffled);
    s.push(
        "core.shuffle_bytes_per_rec",
        shuffled / out.shuffle_records.max(1) as f64,
    );
    s.push("core.shuffled_msgs", hamr("shuffled_messages_total"));
    s.push("core.fc_stalls", hamr("flow_control_stalls_total"));
    s.push("core.stall_s", hamr("flowlet_stall_us_total") / 1e6);

    s.push("core.park_s", out.park_seconds);
    s.push("core.steals", hamr("steals_total"));
    s.push("core.jobs", hamr("job_runs_total"));
    // A single job is its own iteration 0; only chains have later ones.
    let iters: Vec<f64> = out.iters.iter().map(|i| i.elapsed.as_secs_f64()).collect();
    s.push(
        "core.iter0_wall_s",
        iters.first().copied().unwrap_or(rep.wall_s),
    );
    s.push("core.iter_wall_s", median(iters.get(2..).unwrap_or(&[])));

    s.push("core.cache_hits", hamr("hamr_cache_hits_total"));
    s.push(
        "core.cache_bytes_saved",
        hamr("hamr_cache_bytes_saved_total"),
    );
    let resident = rec.span("core.ResidentStore::stats", || env.hamr.resident().stats());
    s.push(
        "core.cache_resident_mb",
        resident.resident_bytes as f64 / 1e6,
    );
    let (entries, bytes) = rec.span("kvstore.KvStore::total", || {
        (env.hamr.kv().total_len(), env.hamr.kv().total_bytes())
    });
    s.push("kvstore.entries", entries as f64);
    s.push("kvstore.bytes", bytes as f64);

    s.push("simnet.sent_bytes", hamr("net_sent_bytes_total"));
    s.push("simnet.sent_msgs", hamr("net_sent_messages_total"));
    // Remote bytes over what the directed links could carry in the wall.
    let links = (env.params.nodes * (env.params.nodes - 1)) as f64;
    let capacity = env
        .params
        .net
        .bandwidth
        .map(|bw| bw as f64 * links * rep.wall_s);
    s.push(
        "simnet.link_busy_share",
        capacity.map_or(0.0, |c| shuffled / c),
    );

    s.push("simdisk.read_bytes", c.disk.bytes_read as f64);
    s.push("simdisk.write_bytes", c.disk.bytes_written as f64);
    s.push("simdisk.read_ops", c.disk.read_ops as f64);
    s.push("simdisk.write_ops", c.disk.write_ops as f64);
    s.push(
        "simdisk.busy_share",
        disk_busy_share(&env.params, &c.disk, rep.wall_s),
    );
}

fn mapred_layer_samples(s: &mut Samples, c: &Counters) {
    let mapred = |name| counter(&c.registry, name, "mapred");
    s.push("mapred.jobs", mapred("job_runs_total"));
    s.push("mapred.map_records_out", mapred("map_records_out_total"));
    s.push("mapred.shuffled_bytes", mapred("shuffled_bytes_total"));
    s.push("mapred.disk_read_bytes", c.disk.bytes_read as f64);
    s.push("mapred.disk_write_bytes", c.disk.bytes_written as f64);
}

#[derive(Clone, Copy)]
enum Arm {
    /// HAMR with spans and counter reads around it.
    Traced,
    /// HAMR as `run` executes it.
    Plain,
    /// HAMR with `StatsMode::Off`, the other half of a stats-tax pair.
    StatsOff,
    Mapred,
}

/// The traced run of one workload: per-layer metrics, a span file.
pub fn layers(w: &Workload, opts: &Options) -> WorkloadResult {
    let rec = Recorder::new(true);
    let params = w.params(opts.topology.threads_per_node, opts.seed);
    let mut checker = Checker::new(w, opts);
    let mut s = Samples::default();
    let expect = &opts.catalogue.per_layer;

    let up = match set_up(w, || Env::new(params.clone()), &rec, &mut checker) {
        Ok(up) => up,
        Err(e) => return finish(w, opts, checker, s, expect, vec![e]),
    };
    s.push("setup.env_s", up.env_s);
    s.push("setup.seed_s", up.seed_s);
    s.push("setup.warmup_s", up.warmup_s);
    let env = up.env;

    // The same workload with the data-plane sketches off, for the tax
    // the default-on plane puts on this workload.
    rec.set_enabled(false);
    let stats_off = RuntimeConfig {
        stats: StatsMode::Off,
        ..RuntimeConfig::default()
    };
    let quiet = || Env::with_hamr_runtime(params.clone(), stats_off);
    let quiet = match set_up(w, quiet, &rec, &mut checker) {
        Ok(up) => up.env,
        Err(e) => return finish(w, opts, checker, s, expect, vec![e]),
    };

    let plain_wall_s = |checker: &mut Checker, on: &Env| {
        let rep = measure(&rec, "workloads.Benchmark::run_hamr", || {
            w.bench.run_hamr(on)
        });
        checker.admit(rep).map(|rep| rep.wall_s)
    };
    let start = Instant::now();
    let (mut rounds, mut last_s) = (0, 0.0);
    let mut order = [Arm::Traced, Arm::Plain, Arm::StatsOff, Arm::Mapred];
    while another_round(
        opts,
        opts.seconds * TRACED_ROUNDS_SHARE,
        rounds,
        start,
        last_s,
    ) {
        let round = Instant::now();
        let (mut traced_s, mut plain_s, mut off_s) = (None, None, None);
        for arm in order {
            rec.set_enabled(matches!(arm, Arm::Traced | Arm::Mapred));
            rec.next_trace();
            match arm {
                Arm::Traced => rec.span("rep.hamr", || {
                    let (rep, c) = counted(&rec, &env, "workloads.Benchmark::run_hamr", || {
                        w.bench.run_hamr(&env)
                    });
                    if let Some(rep) = checker.admit(rep) {
                        traced_s = Some(rep.wall_s);
                        hamr_layer_samples(&mut s, &rep, &c, &env, &rec, &opts.topology);
                    }
                }),
                Arm::Plain => plain_s = plain_wall_s(&mut checker, &env),
                Arm::StatsOff => off_s = plain_wall_s(&mut checker, &quiet),
                Arm::Mapred => rec.span("rep.mapred", || {
                    let (rep, c) = counted(&rec, &env, "workloads.Benchmark::run_mapred", || {
                        w.bench.run_mapred(&env)
                    });
                    if checker.admit(rep).is_some() {
                        mapred_layer_samples(&mut s, &c);
                    }
                }),
            }
        }
        if let (Some(t), Some(p)) = (traced_s, plain_s) {
            s.push("bench.trace_overhead_pct", (t - p) / p * 100.0);
        }
        if let (Some(p), Some(o)) = (plain_s, off_s) {
            s.push("trace.stats_tax_pct", (p - o) / o * 100.0);
        }
        order.rotate_left(1);
        rounds += 1;
        last_s = round.elapsed().as_secs_f64();
    }
    drop(quiet);

    rec.set_enabled(true);
    rec.next_trace();
    for call in calls::run_all(&rec, opts.topology.threads_per_node, opts.out_dir) {
        for sample in call.samples {
            s.push(call.name, sample);
        }
    }

    let mut errors = Vec::new();
    if let Err(e) = rec.check_nesting() {
        errors.push(format!("span recorder: {e}"));
    }
    let trace = opts.out_dir.join(format!("trace_{}.json", w.name));
    if let Err(e) = std::fs::write(&trace, rec.to_json()) {
        errors.push(format!("cannot write {}: {e}", trace.display()));
    }
    finish(w, opts, checker, s, expect, errors)
}

/// One line of the dominance check.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    pub workload: &'static str,
    pub text: &'static str,
    pub holds: bool,
}

/// The claims that make each workload the one its layer is judged on.
/// Checked after a full-size traced run; a claim that stops holding
/// means the workload no longer stresses what it was chosen for. A
/// claim about a workload that did not run, or that needs one that did
/// not, is left out.
pub fn dominance(results: &[WorkloadResult]) -> Vec<Claim> {
    let get = |w: &str, m: &str| results.iter().find(|r| r.name == w)?.value(m);
    let checks: [(&'static str, &'static str, Option<bool>); 7] = [
        (
            "wordcount_cpu",
            "no modeled net or disk time",
            get("wordcount_cpu", "simnet.link_busy_share")
                .zip(get("wordcount_cpu", "simdisk.busy_share"))
                .map(|(net, disk)| net == 0.0 && disk == 0.0),
        ),
        (
            "wordcount_cpu",
            "core.cpu_share >= 0.6",
            get("wordcount_cpu", "core.cpu_share").map(|u| u >= 0.6),
        ),
        (
            "wordcount_shuffle",
            "core.shuffle_bytes_per_rec >= 2x wordcount_cpu's",
            get("wordcount_shuffle", "core.shuffle_bytes_per_rec")
                .zip(get("wordcount_cpu", "core.shuffle_bytes_per_rec"))
                .map(|(wide, narrow)| wide >= 2.0 * narrow),
        ),
        (
            "histratings_io",
            "simdisk.busy_share >= 0.5",
            get("histratings_io", "simdisk.busy_share").map(|b| b >= 0.5),
        ),
        (
            "histratings_io",
            "core.cpu_share <= 0.5",
            get("histratings_io", "core.cpu_share").map(|u| u <= 0.5),
        ),
        (
            "pagerank_chain",
            "core.jobs = 7",
            get("pagerank_chain", "core.jobs").map(|j| j == 7.0),
        ),
        (
            "pagerank_chain",
            "core.cache_hits > 0",
            get("pagerank_chain", "core.cache_hits").map(|h| h > 0.0),
        ),
    ];
    checks
        .into_iter()
        .filter_map(|(workload, text, holds)| {
            Some(Claim {
                workload,
                text,
                holds: holds?,
            })
        })
        .collect()
}
