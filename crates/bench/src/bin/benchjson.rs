//! `benchjson` — fixed-seed perf snapshot of both engines.
//!
//! Runs WordCount, PageRank (3 iterations) and HistogramRatings —
//! plus skew-stressed PageRank/HistogramRatings variants that
//! concentrate the work on a few hot keys — on the HAMR and MapReduce
//! engines at fixed seeds and sizes, and writes a machine-readable
//! `BENCH_pr8.json` (schema `hamr-benchjson/6`, documented in
//! EXPERIMENTS.md). Every HAMR row also reports the skew-mitigation
//! counters (`combined_records` / `splits_triggered`) — the default
//! runtime runs with combining and hot-key splitting on, so the
//! headline rows measure the mitigated engine.
//!
//! Schema 5 adds per-iteration columns: every row carries an `iters`
//! array (`iter_shuffled_bytes`, `iter_records_s`, `cache_hits`,
//! `cache_bytes_saved` per iteration — empty for single-job workloads
//! and for mapred), and the headline `PageRank` row (session chain,
//! resident cache on) is paired with a `PageRank-nocache` ablation row
//! that runs the same chain with the partition-resident frame cache
//! disabled. That pair is the cross-iteration-reuse evidence: from
//! iteration 2 the cache-on chain ships only the rank frontier.
//!
//! Schema 6 adds the data-plane sketch columns: every row carries
//! `distinct_keys` (estimated distinct shuffle keys, HLL) and
//! `hot_key_share` (hottest key's record share, SpaceSaving), zero
//! when `HAMR_STATS=off`. The run doubles as an accuracy check: each
//! engine's estimate must land within 5% of the exact count the
//! MapReduce baseline derives from its reduce groups, or the harness
//! exits 6 (the HLL's 3-sigma band at 2^12 registers is 4.9%, so a
//! healthy sketch always clears the bar).
//!
//! The timing reps run untraced. Afterwards each (benchmark, engine)
//! pair gets ONE extra run with the causal profiler attached (via the
//! clusters' `set_run_options`, so the `Benchmark` trait stays
//! engine-agnostic); `analyze` over that run's event log fills the
//! `critical_path_ms` / `stall_share` / `net_share` columns on every
//! row. The profiled walls never enter the timing columns.
//!
//! `--profile-dir D` writes each profiled run's full causal report to
//! `D/causal_{benchmark}_{engine}.json`; `--fail-on-overhead PCT`
//! exits nonzero when any profiled run exceeds its untraced wall by
//! more than PCT% (+50ms slack) — the CI sampler-overhead gate.
//!
//! `--audited` additionally runs every (benchmark, engine) pair once
//! under the self-verification layer (default `Supervision` on HAMR,
//! the shuffle ledger on MapReduce): the bin-custody ledger
//! must balance and the watchdog must stay silent, and the audited
//! wall joins the `--fail-on-overhead` gate as `<engine>-audited` so
//! CI proves the ledger's cost stays inside the same budget.
//!
//! Two perf gates need no baseline — their reference rides in the same
//! run — and so run on every invocation, exiting 5 (regression gating
//! against another commit is `benchmark/run.sh compare`). The
//! skewed HistogramRatings row must not invert: with the mitigations
//! on by default, HAMR losing to the MapReduce baseline on its own
//! headline skew case is a regression no threshold excuses. And the
//! chain cache must keep collapsing the iterative shuffle: on every
//! PageRank iteration >= 2 the cache-on chain must emit at most 20% of
//! the records `PageRank-nocache` shuffles in that same iteration.
//!
//! `--skew-ablation` runs the skewed HistogramRatings workload once
//! per mitigation combination (off / combine / split /
//! combine,split) plus a MapReduce reference, demands bit-identical checksums
//! across every combination, and writes the per-combo walls and
//! mitigation counters to a `skew_ablation` section of the snapshot.
//!
//! `--metrics-out FILE` runs WordCount once more with the cluster's
//! introspection endpoint live, scrapes `/metrics` from a side thread
//! while the run is in flight, and writes the final (both-engines)
//! scrape — validated as parseable Prometheus text — to FILE. The
//! `/stats` data-plane snapshot from the same run (per-edge sketches,
//! lineage samples in full mode) lands beside it as
//! `FILE[-.prom].stats.json`. Those are the snapshot artifacts CI
//! uploads.
//!
//! ```text
//! benchjson [--quick] [--reps N] [--out BENCH_pr8.json]
//!           [--profile-dir DIR] [--fail-on-overhead PCT] [--audited]
//!           [--metrics-out FILE] [--skew-ablation] [--journal DIR]
//! ```
//!
//! `--journal DIR` adds one quick WordCount row with the durable
//! flight journal writing into DIR; its wall joins the
//! `--fail-on-overhead` gate as `hamr-journal` and the journal is
//! read back into a timeline (a completed `wordcount` job must be
//! reconstructable) before the gate passes.

use hamr_core::{RunOptions, RuntimeConfig, SchedMode, SkewConfig, Supervision};
use hamr_mapred::MrRunOptions;
use hamr_trace::{analyze, http_get, parse_prometheus, RingSink, Tracer};
use hamr_workloads::histogram_ratings::HistogramRatings;
use hamr_workloads::pagerank::PageRank;
use hamr_workloads::wordcount::WordCount;
use hamr_workloads::{BenchOutput, Benchmark, Env, IterStats, SimParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counts every heap allocation so the harness reports a measured
/// allocations-per-record figure, not an estimate from first principles.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One (benchmark, engine) measurement, minimum over reps.
#[derive(Debug, Clone)]
struct Row {
    benchmark: String,
    engine: &'static str,
    wall_seconds: f64,
    shuffle_records: u64,
    records_per_sec: f64,
    shuffled_bytes: u64,
    output_records: u64,
    checksum: u64,
    allocations: u64,
    allocations_per_record: f64,
    steals: u64,
    park_seconds: f64,
    occupancy_imbalance: f64,
    /// Length of the longest produce→consume dependency chain in the
    /// profiled run, milliseconds.
    critical_path_ms: f64,
    /// Share of lane time the profiled run spent blocked on flow
    /// control / on the network (causal attribution buckets).
    stall_share: f64,
    net_share: f64,
    /// Skew-mitigation counters: records folded away by combiners and
    /// absorbers, and hot reduce partitions split across nodes. Both
    /// zero for mapred.
    combined_records: u64,
    splits_triggered: u64,
    /// Data-plane sketch figures (schema 6): estimated distinct
    /// shuffle keys and the hottest key's record share. Zero when
    /// `HAMR_STATS=off`.
    distinct_keys: u64,
    hot_key_share: f64,
    /// Exact distinct shuffle keys when the engine counts them (the
    /// mapred reduce-group total). Anchors the sketch-accuracy gate;
    /// not serialized.
    exact_distinct: u64,
    /// Per-iteration shuffle and cache telemetry (first rep). Empty
    /// for single-job workloads and for the mapred engine.
    iters: Vec<IterStats>,
}

/// Causal columns measured on the one profiled run per row.
#[derive(Debug, Clone, Copy, Default)]
struct ProfileCols {
    critical_path_ms: f64,
    stall_share: f64,
    net_share: f64,
    /// Profiled run's wall seconds — for the overhead gate only.
    wall_seconds: f64,
}

impl Row {
    fn from_runs(benchmark: &str, engine: &'static str, runs: &[(BenchOutput, u64)]) -> Row {
        let best = runs
            .iter()
            .map(|(o, _)| o.elapsed.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        let allocs = runs.iter().map(|(_, a)| *a).min().unwrap_or(0);
        let (out, _) = &runs[0];
        let per_rec = |x: f64| {
            if out.shuffle_records == 0 {
                0.0
            } else {
                x / out.shuffle_records as f64
            }
        };
        Row {
            benchmark: benchmark.to_string(),
            engine,
            wall_seconds: best,
            shuffle_records: out.shuffle_records,
            records_per_sec: if best > 0.0 {
                out.shuffle_records as f64 / best
            } else {
                0.0
            },
            shuffled_bytes: out.shuffled_bytes,
            output_records: out.records,
            checksum: out.checksum,
            allocations: allocs,
            allocations_per_record: per_rec(allocs as f64),
            steals: out.steals,
            park_seconds: out.park_seconds,
            occupancy_imbalance: out.occupancy_imbalance,
            critical_path_ms: 0.0,
            stall_share: 0.0,
            net_share: 0.0,
            combined_records: out.combined_records,
            splits_triggered: out.splits_triggered,
            distinct_keys: out.distinct_keys,
            hot_key_share: out.hot_key_share,
            exact_distinct: out.exact_distinct_keys,
            iters: out.iters.clone(),
        }
    }

    fn with_profile(mut self, p: ProfileCols) -> Row {
        self.critical_path_ms = p.critical_path_ms;
        self.stall_share = p.stall_share;
        self.net_share = p.net_share;
        self
    }

    /// The schema-5 per-iteration array: one object per iteration of
    /// an iterative workload, carrying that iteration's shuffle volume,
    /// throughput, and resident-cache counters.
    fn iters_json(&self) -> String {
        let entries: Vec<String> = self
            .iters
            .iter()
            .enumerate()
            .map(|(i, it)| {
                let secs = it.elapsed.as_secs_f64();
                let rps = if secs > 0.0 {
                    it.shuffle_records as f64 / secs
                } else {
                    0.0
                };
                format!(
                    concat!(
                        "{{\"iter\":{},\"iter_shuffled_bytes\":{},",
                        "\"iter_records_s\":{:.1},\"cache_hits\":{},",
                        "\"cache_bytes_saved\":{}}}"
                    ),
                    i, it.shuffled_bytes, rps, it.cache_hits, it.cache_bytes_saved
                )
            })
            .collect();
        format!("[{}]", entries.join(","))
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"benchmark\":\"{}\",\"engine\":\"{}\",",
                "\"wall_seconds\":{:.6},\"shuffle_records\":{},",
                "\"records_per_sec\":{:.1},\"shuffled_bytes\":{},",
                "\"output_records\":{},\"checksum\":\"{:016x}\",",
                "\"allocations\":{},\"allocations_per_record\":{:.3},",
                "\"steals\":{},\"park_seconds\":{:.6},",
                "\"occupancy_imbalance\":{:.4},",
                "\"critical_path_ms\":{:.3},\"stall_share\":{:.4},",
                "\"net_share\":{:.4},",
                "\"combined_records\":{},\"splits_triggered\":{},",
                "\"distinct_keys\":{},\"hot_key_share\":{:.4},",
                "\"iters\":{}}}"
            ),
            self.benchmark,
            self.engine,
            self.wall_seconds,
            self.shuffle_records,
            self.records_per_sec,
            self.shuffled_bytes,
            self.output_records,
            self.checksum,
            self.allocations,
            self.allocations_per_record,
            self.steals,
            self.park_seconds,
            self.occupancy_imbalance,
            self.critical_path_ms,
            self.stall_share,
            self.net_share,
            self.combined_records,
            self.splits_triggered,
            self.distinct_keys,
            self.hot_key_share,
            self.iters_json(),
        )
    }
}

/// Absolute floor on the headline skew case: the `HistogramRatings-skew`
/// hamr/mapred throughput ratio must stay >= 1.0: HAMR with its default
/// mitigations ships fewer, pre-folded records, and falling behind
/// mapred there means skew handling broke. Returns true on inversion.
fn skew_inversion_gate(rows: &[Row]) -> bool {
    let rps = |engine: &str| {
        rows.iter()
            .find(|r| r.benchmark == "HistogramRatings-skew" && r.engine == engine)
            .map(|r| r.records_per_sec)
    };
    let (Some(hamr), Some(mr)) = (rps("hamr"), rps("mapred")) else {
        return false;
    };
    if mr <= 0.0 {
        return false;
    }
    let ratio = hamr / mr;
    if ratio < 1.0 {
        eprintln!(
            "benchjson: REGRESSION: HistogramRatings-skew inverted: hamr/mapred \
             throughput ratio {ratio:.3} < 1.0 — skew mitigations are not holding"
        );
        true
    } else {
        eprintln!("benchjson: skew-inversion gate ok: HistogramRatings-skew ratio {ratio:.3}");
        false
    }
}

/// Absolute floor on cross-iteration reuse: on every PageRank
/// iteration >= 2 the cache-on chain (`PageRank`, engine `hamr`) must
/// have served at least one resident partition and must emit at most
/// 20% of the records the cache-off chain (`PageRank-nocache`) emitted
/// into that iteration's shuffles. Records, because they are what a
/// serve removes (the adjacency loader never runs); the floor was on
/// shuffled bytes until the 8-byte key hash left the frame, which
/// halved the full-shuffle denominator and left the served side's
/// rank blobs and control messages where they were. Measured then, full
/// shape: 20,016 records against 206,416 (9.7%) and 245,400 bytes
/// against 1,101,433 (22%; 11.7% of 2,097,569 in BENCH_pr8); `--quick`:
/// 1,016 against 9,902 records (10.3%). Returns true on failure.
fn chain_cache_gate(rows: &[Row]) -> bool {
    let iters = |benchmark: &str| {
        rows.iter()
            .find(|r| r.benchmark == benchmark && r.engine == "hamr")
            .map(|r| &r.iters)
    };
    let (Some(served), Some(full)) = (iters("PageRank"), iters("PageRank-nocache")) else {
        return false;
    };
    if served.len() < 3 || full.len() < 3 {
        eprintln!(
            "benchjson: REGRESSION: PageRank rows carry no iteration->=2 telemetry \
             (served {} iters, full {}) — cannot prove cross-iteration reuse",
            served.len(),
            full.len()
        );
        return true;
    }
    let mut failed = false;
    for (i, (s, f)) in served.iter().zip(full.iter()).enumerate().skip(2) {
        if s.cache_hits == 0 {
            eprintln!(
                "benchjson: REGRESSION: PageRank iteration {i} served no resident \
                 partition — the chain cache is not engaging"
            );
            failed = true;
        }
        if s.shuffle_records * 5 > f.shuffle_records {
            eprintln!(
                "benchjson: REGRESSION: PageRank iteration {i} emitted {} shuffle records \
                 vs {} in the full shuffle (> 20%) — cross-iteration reuse regressed",
                s.shuffle_records, f.shuffle_records
            );
            failed = true;
        }
    }
    if !failed {
        eprintln!(
            "benchjson: chain-cache gate ok: PageRank iterations >=2 emit <= 20% of \
             the full-shuffle records"
        );
    }
    failed
}

/// The mitigation combinations the `--skew-ablation` mode sweeps. The
/// default thresholds are used as-is: the skewed HistogramRatings
/// shape concentrates far more than `split_threshold` records on its
/// hot movies, so splitting engages at both `--quick` and full scale.
fn skew_combos() -> Vec<(&'static str, SkewConfig)> {
    vec![
        ("off", SkewConfig::off()),
        (
            "combine",
            SkewConfig {
                split: false,
                ..SkewConfig::default()
            },
        ),
        (
            "split",
            SkewConfig {
                combine: false,
                ..SkewConfig::default()
            },
        ),
        ("combine,split", SkewConfig::default()),
    ]
}

/// One `--skew-ablation` row: the skewed HistogramRatings workload
/// under a single mitigation combination (or the mapred reference).
#[derive(Debug)]
struct AblationRow {
    combo: &'static str,
    engine: &'static str,
    wall_seconds: f64,
    records_per_sec: f64,
    checksum: u64,
    combined_records: u64,
    splits_triggered: u64,
}

impl AblationRow {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"combo\":\"{}\",\"engine\":\"{}\",",
                "\"wall_seconds\":{:.6},\"records_per_sec\":{:.1},",
                "\"checksum\":\"{:016x}\",\"combined_records\":{},",
                "\"splits_triggered\":{}}}"
            ),
            self.combo,
            self.engine,
            self.wall_seconds,
            self.records_per_sec,
            self.checksum,
            self.combined_records,
            self.splits_triggered,
        )
    }
}

/// The `--skew-ablation` sweep: skewed HistogramRatings once per
/// mitigation combination plus a mapred reference, all on fresh
/// environments. Every combination must reproduce the reference
/// checksum bit-for-bit — an ablation that changes the answer is a
/// fatal harness error, not a data point.
fn skew_ablation(params: &SimParams) -> Result<Vec<AblationRow>, String> {
    let bench = HistogramRatings {
        movies: 16,
        users: 50_000,
        max_ratings_per_movie: 100_000,
    };
    let mut rows = Vec::new();
    let env = Env::with_hamr_sched(params.clone(), SchedMode::WorkStealing);
    bench.seed(&env)?;
    let mr = bench.run_mapred(&env)?;
    let row = |combo, engine, out: &BenchOutput| AblationRow {
        combo,
        engine,
        wall_seconds: out.elapsed.as_secs_f64(),
        records_per_sec: if out.elapsed.as_secs_f64() > 0.0 {
            out.shuffle_records as f64 / out.elapsed.as_secs_f64()
        } else {
            0.0
        },
        checksum: out.checksum,
        combined_records: out.combined_records,
        splits_triggered: out.splits_triggered,
    };
    rows.push(row("reference", "mapred", &mr));
    for (combo, skew) in skew_combos() {
        let runtime = RuntimeConfig {
            sched: SchedMode::WorkStealing,
            skew,
            ..Default::default()
        };
        let env = Env::with_hamr_runtime(params.clone(), runtime);
        bench.seed(&env)?;
        let out = bench.run_hamr(&env)?;
        if out.checksum != mr.checksum {
            return Err(format!(
                "skew ablation '{combo}' changed the answer: checksum {:016x} vs \
                 mapred {:016x}",
                out.checksum, mr.checksum
            ));
        }
        eprintln!(
            "benchjson: skew-ablation {combo:<13} {:>12.0} rec/s ({:.3}s) \
             combined={} splits={}",
            out.shuffle_records as f64 / out.elapsed.as_secs_f64().max(1e-9),
            out.elapsed.as_secs_f64(),
            out.combined_records,
            out.splits_triggered,
        );
        rows.push(row(combo, "hamr", &out));
    }
    Ok(rows)
}

struct Args {
    quick: bool,
    reps: usize,
    out: String,
    profile_dir: Option<String>,
    fail_on_overhead: Option<f64>,
    audited: bool,
    metrics_out: Option<String>,
    skew_ablation: bool,
    journal: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        reps: 3,
        out: "BENCH_pr8.json".to_string(),
        profile_dir: None,
        fail_on_overhead: None,
        audited: false,
        metrics_out: None,
        skew_ablation: false,
        journal: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--reps" => args.reps = value("--reps")?.parse().map_err(|e| format!("{e}"))?,
            "--out" => args.out = value("--out")?,
            "--profile-dir" => args.profile_dir = Some(value("--profile-dir")?),
            "--fail-on-overhead" => {
                args.fail_on_overhead = Some(
                    value("--fail-on-overhead")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--audited" => args.audited = true,
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--skew-ablation" => args.skew_ablation = true,
            "--journal" => args.journal = Some(value("--journal")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.quick {
        args.reps = args.reps.min(1);
    }
    if args.reps == 0 {
        return Err("--reps must be >= 1".into());
    }
    Ok(args)
}

/// (row label, benchmark). The `-skew` rows reuse the same workload
/// code with hot-key parameter choices: a few keys draw nearly all
/// records, which is where the work-stealing scheduler earns its keep.
fn benchmarks() -> Vec<(&'static str, Box<dyn Benchmark>)> {
    vec![
        ("WordCount", Box::new(WordCount::default())),
        (
            "PageRank",
            Box::new(PageRank {
                iterations: 3,
                ..Default::default()
            }),
        ),
        // Same chain, resident cache off: every iteration re-scans and
        // re-ships the reverse adjacency. The PageRank/PageRank-nocache
        // pair is the snapshot's cross-iteration-reuse ablation and
        // feeds the chain-cache gate.
        (
            "PageRank-nocache",
            Box::new(PageRank {
                iterations: 3,
                resident: false,
                ..Default::default()
            }),
        ),
        ("HistogramRatings", Box::new(HistogramRatings::default())),
        (
            "PageRank-skew",
            Box::new(PageRank {
                pages: 2_000,
                max_out_links: 400,
                iterations: 3,
                resident: true,
            }),
        ),
        (
            "HistogramRatings-skew",
            Box::new(HistogramRatings {
                movies: 16,
                users: 50_000,
                max_ratings_per_movie: 100_000,
            }),
        ),
    ]
}

/// One profiled run of `bench` on `engine`: fresh environment, ring
/// sink and event tracing on, set as the clusters' run options so the
/// `Benchmark` trait stays engine-agnostic. Returns the causal columns for the row; with
/// `profile_dir` also writes the full causal report as JSON.
fn profile_run(
    bench: &dyn Benchmark,
    label: &str,
    engine: &str,
    params: &SimParams,
    profile_dir: Option<&str>,
) -> Result<ProfileCols, String> {
    let env = Env::with_hamr_sched(params.clone(), SchedMode::WorkStealing);
    bench.seed(&env)?;
    let sink = Arc::new(RingSink::new(64, 1 << 18));
    let tracer = Tracer::new(sink.clone());
    env.hamr.set_run_options(RunOptions {
        tracer: tracer.clone(),
        supervision: None,
    });
    env.mr.set_run_options(MrRunOptions {
        tracer,
        audit: false,
    });
    let out = match engine {
        "mapred" => bench.run_mapred(&env),
        _ => bench.run_hamr(&env),
    }?;
    let dropped = sink.dropped();
    if dropped > 0 {
        eprintln!(
            "benchjson: WARNING: {label} ({engine}): trace sink dropped {dropped} \
             events; causal columns are built on a truncated log"
        );
    }
    let events = sink.drain();
    let report = analyze(&events, dropped);
    if let Some(dir) = profile_dir {
        let path = format!("{dir}/causal_{label}_{engine}.json");
        std::fs::write(&path, report.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    }
    let shares = report.shares();
    Ok(ProfileCols {
        critical_path_ms: report.critical_path.total_us as f64 / 1000.0,
        stall_share: shares[2],
        net_share: shares[3],
        wall_seconds: out.elapsed.as_secs_f64(),
    })
}

/// One audited run of `bench` on `engine`: default supervision (HAMR)
/// / the shuffle ledger (MapReduce) tally every bin through the
/// emit → ship → deliver → consume custody ledger while the watchdog
/// monitors liveness. Returns the audited wall seconds for the
/// overhead gate; a conservation violation or a hang/backpressure
/// trip is fatal, a straggler warning is reported but tolerated.
fn audited_run(
    bench: &dyn Benchmark,
    label: &str,
    engine: &str,
    params: &SimParams,
) -> Result<f64, String> {
    let env = Env::with_hamr_sched(params.clone(), SchedMode::WorkStealing);
    bench.seed(&env)?;
    env.hamr.set_run_options(RunOptions {
        supervision: Some(Supervision::default()),
        ..Default::default()
    });
    env.mr.set_run_options(MrRunOptions {
        audit: true,
        ..Default::default()
    });
    let out = match engine {
        "mapred" => bench.run_mapred(&env),
        _ => bench.run_hamr(&env),
    }?;
    let report = match engine {
        "mapred" => env.mr.last_audit(),
        _ => env.hamr.last_audit(),
    }
    .ok_or("audited run recorded no ledger")?;
    report
        .check()
        .map_err(|v| format!("bin custody violated: {}", v[0]))?;
    for ev in env.hamr.watchdog_events() {
        match ev.class {
            hamr_trace::WatchdogClass::Straggler => eprintln!(
                "benchjson: WARNING: {label} ({engine}): straggler warning: {}",
                ev.detail
            ),
            _ => {
                return Err(format!(
                    "watchdog tripped ({:?} at epoch {}): {}",
                    ev.class, ev.epoch, ev.detail
                ))
            }
        }
    }
    Ok(out.elapsed.as_secs_f64())
}

/// One journal-enabled quick row for the overhead gate: WordCount
/// untraced, then WordCount supervised with the durable flight
/// journal writing into `dir`. The journaled wall joins
/// `--fail-on-overhead` as `hamr-journal`, and the journal must read
/// back into a timeline naming a completed `wordcount` job — a
/// journal that costs real throughput or corrupts its own artifact
/// fails CI here, not in a production post-mortem.
fn journal_run(params: &SimParams, dir: &str) -> Result<(f64, f64), String> {
    let bench = WordCount::default();
    let env = Env::with_hamr_sched(params.clone(), SchedMode::WorkStealing);
    bench.seed(&env)?;
    let untraced = bench.run_hamr(&env)?.elapsed.as_secs_f64();
    let env = Env::with_hamr_sched(params.clone(), SchedMode::WorkStealing);
    bench.seed(&env)?;
    env.hamr
        .enable_journal(dir)
        .map_err(|e| format!("enable journal: {e}"))?;
    env.hamr.set_run_options(RunOptions {
        supervision: Some(Supervision::default()),
        ..Default::default()
    });
    let journaled = bench.run_hamr(&env)?.elapsed.as_secs_f64();
    let timeline = hamr_trace::Timeline::load(std::path::Path::new(dir))
        .map_err(|e| format!("re-read journal: {e}"))?;
    if !timeline
        .jobs
        .iter()
        .any(|j| j.job == "wordcount" && j.ok == Some(true))
    {
        return Err("journal timeline records no completed wordcount job".into());
    }
    Ok((untraced, journaled))
}

/// One introspected run for the `--metrics-out` artifact: WordCount on
/// both engines with the HAMR cluster's endpoint live, a side thread
/// scraping `/metrics` while the run is in flight (proving the
/// endpoint answers mid-run). Returns the final post-run `/metrics`
/// scrape — which carries both engines' series — the `/stats`
/// data-plane snapshot (per-edge sketches, lineage samples in full
/// mode), and the count of successful mid-run scrapes.
fn metrics_snapshot_run(params: &SimParams) -> Result<(String, String, u64), String> {
    let bench = WordCount::default();
    let env = Env::with_hamr_sched(params.clone(), SchedMode::WorkStealing);
    bench.seed(&env)?;
    let addr = env
        .hamr
        .serve_introspection(0)
        .map_err(|e| format!("bind introspection endpoint: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut good = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Ok((200, body)) = http_get(addr, "/metrics", Duration::from_millis(250)) {
                    if parse_prometheus(&body).is_ok() {
                        good += 1;
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            good
        })
    };
    let run = bench.run_hamr(&env).and_then(|_| bench.run_mapred(&env));
    stop.store(true, Ordering::Relaxed);
    let mid_scrapes = scraper.join().unwrap_or(0);
    run?;
    let (status, body) =
        http_get(addr, "/metrics", Duration::from_secs(2)).map_err(|e| format!("scrape: {e}"))?;
    if status != 200 {
        return Err(format!("scrape: HTTP {status}"));
    }
    let samples = parse_prometheus(&body).map_err(|e| format!("invalid Prometheus text: {e}"))?;
    for engine in ["hamr", "mapred"] {
        if !samples.iter().any(|s| s.label("engine") == Some(engine)) {
            return Err(format!("snapshot carries no engine=\"{engine}\" series"));
        }
    }
    let (status, stats) = http_get(addr, "/stats", Duration::from_secs(2))
        .map_err(|e| format!("/stats scrape: {e}"))?;
    if status != 200 {
        return Err(format!("/stats scrape: HTTP {status}"));
    }
    if !stats.contains("\"job\":\"wordcount\"") || !stats.contains("\"edges\":[") {
        return Err(format!("/stats snapshot missing wordcount edges: {stats}"));
    }
    env.hamr.stop_introspection();
    Ok((body, stats, mid_scrapes))
}

/// Sketch-accuracy gate (schema 6): every row's estimated distinct
/// shuffle keys must land within 5% of the exact count the MapReduce
/// baseline derives from its reduce groups for the same benchmark
/// (disjoint reducer key ranges make that total exact). Rows with no
/// sketch figure (stats off) and benchmarks with no exact anchor are
/// skipped. Returns true when any row misses the band.
fn sketch_accuracy_gate(rows: &[Row]) -> bool {
    let exact: BTreeMap<&str, u64> = rows
        .iter()
        .filter(|r| r.engine == "mapred" && r.exact_distinct > 0)
        .map(|r| (r.benchmark.as_str(), r.exact_distinct))
        .collect();
    let mut failed = false;
    for row in rows.iter().filter(|r| r.distinct_keys > 0) {
        let Some(&truth) = exact.get(row.benchmark.as_str()) else {
            continue;
        };
        let err = 100.0 * (row.distinct_keys as f64 - truth as f64).abs() / truth as f64;
        if err > 5.0 {
            eprintln!(
                "benchjson: SKETCH: {} ({}): distinct_keys {} vs exact {truth} \
                 ({err:.2}% off > 5%)",
                row.benchmark, row.engine, row.distinct_keys
            );
            failed = true;
        } else {
            eprintln!(
                "benchjson: sketch ok: {} ({}): distinct_keys {} vs exact {truth} \
                 ({err:.2}% off)",
                row.benchmark, row.engine, row.distinct_keys
            );
        }
    }
    failed
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchjson: {e}");
            std::process::exit(2);
        }
    };
    // Fixed shape: 4 nodes x 2 threads, instant net/disk models so wall
    // time is pure compute — exactly where the data-plane cost shows.
    let nodes = 4;
    let threads = 2;
    let scale = if args.quick { 0.05 } else { 1.0 };
    let params = SimParams::test(nodes, threads).with_scale(scale);

    if let Some(dir) = &args.profile_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("benchjson: create {dir}: {e}");
            std::process::exit(1);
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    // (label, engine, untraced wall, profiled wall) for the overhead gate.
    let mut overheads: Vec<(String, &'static str, f64, f64)> = Vec::new();
    for (label, bench) in benchmarks() {
        let mut hamr_runs: Vec<(BenchOutput, u64)> = Vec::new();
        let mut mr_runs: Vec<(BenchOutput, u64)> = Vec::new();
        for _rep in 0..args.reps {
            // Fresh environments per rep keep runs identical: same
            // seeds, empty DFS, cold KV store. The scheduler mode is
            // pinned per environment so `HAMR_SCHED` cannot skew the
            // comparison.
            let env = Env::with_hamr_sched(params.clone(), SchedMode::WorkStealing);
            bench.seed(&env).unwrap_or_else(|e| {
                eprintln!("benchjson: seed {label}: {e}");
                std::process::exit(1);
            });
            for (engine, runs) in [("hamr", &mut hamr_runs), ("mapred", &mut mr_runs)] {
                let before = ALLOCS.load(Ordering::Relaxed);
                let out = match engine {
                    "mapred" => bench.run_mapred(&env),
                    _ => bench.run_hamr(&env),
                }
                .unwrap_or_else(|e| {
                    eprintln!("benchjson: {label} ({engine}): {e}");
                    std::process::exit(1);
                });
                let allocs = ALLOCS.load(Ordering::Relaxed).wrapping_sub(before);
                runs.push((out, allocs));
            }
        }
        let mut hamr = Row::from_runs(label, "hamr", &hamr_runs);
        let mut mr = Row::from_runs(label, "mapred", &mr_runs);
        // One extra profiled run per row fills the causal columns; its
        // wall never enters the timing columns above.
        for row in [&mut hamr, &mut mr] {
            let cols = profile_run(
                bench.as_ref(),
                label,
                row.engine,
                &params,
                args.profile_dir.as_deref(),
            )
            .unwrap_or_else(|e| {
                eprintln!("benchjson: profile {label} ({}): {e}", row.engine);
                std::process::exit(1);
            });
            overheads.push((
                label.to_string(),
                row.engine,
                row.wall_seconds,
                cols.wall_seconds,
            ));
            *row = row.clone().with_profile(cols);
        }
        // One audited run per row: conservation must hold, the
        // watchdog must stay silent, and the wall joins the overhead
        // gate under an `-audited` engine label.
        if args.audited {
            for (row, gate_label) in [(&hamr, "hamr-audited"), (&mr, "mapred-audited")] {
                let wall =
                    audited_run(bench.as_ref(), label, row.engine, &params).unwrap_or_else(|e| {
                        eprintln!("benchjson: audited {label} ({}): {e}", row.engine);
                        std::process::exit(4);
                    });
                overheads.push((label.to_string(), gate_label, row.wall_seconds, wall));
            }
        }
        eprintln!(
            "{:<22} hamr {:>12.0} rec/s ({:.3}s, {} steals)   \
             mapred {:>12.0} rec/s ({:.3}s)",
            label,
            hamr.records_per_sec,
            hamr.wall_seconds,
            hamr.steals,
            mr.records_per_sec,
            mr.wall_seconds,
        );
        rows.push(hamr);
        rows.push(mr);
    }

    // The skew-ablation sweep runs before the snapshot is written so a
    // checksum divergence aborts without leaving a half-true artifact.
    let ablation_rows = if args.skew_ablation {
        match skew_ablation(&params) {
            Ok(rows) => Some(rows),
            Err(e) => {
                eprintln!("benchjson: skew ablation: {e}");
                std::process::exit(4);
            }
        }
    } else {
        None
    };

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"hamr-benchjson/6\",\n");
    json.push_str(&format!(
        "  \"params\": {{\"nodes\": {nodes}, \"threads_per_node\": {threads}, \
         \"scale\": {scale}, \"seed\": 42, \"reps\": {}, \"quick\": {}}},\n",
        args.reps, args.quick
    ));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!("    {}{sep}\n", row.json()));
    }
    json.push_str("  ]");
    if let Some(ab) = &ablation_rows {
        json.push_str(",\n  \"skew_ablation\": [\n");
        for (i, row) in ab.iter().enumerate() {
            let sep = if i + 1 == ab.len() { "" } else { "," };
            json.push_str(&format!("    {}{sep}\n", row.json()));
        }
        json.push_str("  ]");
    }
    json.push_str("\n}\n");

    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("benchjson: write {}: {e}", args.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", args.out);

    if let Some(path) = &args.metrics_out {
        match metrics_snapshot_run(&params) {
            Ok((body, stats, mid_scrapes)) => {
                if let Err(e) = std::fs::write(path, &body) {
                    eprintln!("benchjson: write {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote {path} ({mid_scrapes} successful mid-run scrapes)");
                let stats_path = format!("{}.stats.json", path.trim_end_matches(".prom"));
                if let Err(e) = std::fs::write(&stats_path, &stats) {
                    eprintln!("benchjson: write {stats_path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote {stats_path}");
            }
            Err(e) => {
                eprintln!("benchjson: metrics snapshot: {e}");
                std::process::exit(1);
            }
        }
    }

    // One journal-enabled row: the durable flight journal's wall cost
    // enters the same overhead gate as the sampler's.
    if let Some(dir) = &args.journal {
        match journal_run(&params, dir) {
            Ok((untraced, journaled)) => {
                eprintln!(
                    "benchjson: journal run: WordCount untraced {untraced:.3}s, \
                     journaled {journaled:.3}s -> {dir}"
                );
                overheads.push(("WordCount".to_string(), "hamr-journal", untraced, journaled));
            }
            Err(e) => {
                eprintln!("benchjson: journal run: {e}");
                std::process::exit(1);
            }
        }
    }

    // Tracing-overhead gate: the profiled runs (event tracer on) must
    // stay within the budget of their untraced counterparts. 50ms
    // absolute slack absorbs scheduling noise on the sub-second --quick
    // walls.
    if let Some(pct) = args.fail_on_overhead {
        let slack = 0.050;
        let mut failed = false;
        for (label, engine, untraced, profiled) in &overheads {
            let budget = untraced * (1.0 + pct / 100.0) + slack;
            let over = 100.0 * (profiled - untraced) / untraced.max(1e-9);
            if *profiled > budget {
                eprintln!(
                    "benchjson: OVERHEAD: {label} ({engine}): profiled {profiled:.3}s vs \
                     untraced {untraced:.3}s (+{over:.1}%) exceeds {pct}% + {slack}s slack"
                );
                failed = true;
            } else {
                eprintln!(
                    "benchjson: overhead ok: {label} ({engine}): \
                     profiled {profiled:.3}s vs untraced {untraced:.3}s ({over:+.1}%)"
                );
            }
        }
        if failed {
            std::process::exit(3);
        }
    }

    // Sketch-accuracy gate: the estimates the snapshot just published
    // must agree with the exact reduce-group counts.
    if sketch_accuracy_gate(&rows) {
        std::process::exit(6);
    }

    // Perf-regression gates, last so all diagnostics above still print.
    let mut regressed = skew_inversion_gate(&rows);
    regressed |= chain_cache_gate(&rows);
    if regressed {
        std::process::exit(5);
    }
}
