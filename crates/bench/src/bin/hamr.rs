//! `hamr` — the operator binary: a live console, and the offline
//! tools that read what a run left behind.
//!
//! `hamr top` polls a cluster's embedded introspection endpoint (see
//! `HAMR_HTTP` / `Cluster::serve_introspection`) and renders a
//! per-node table each tick: worker occupancy, aggregate flowlet
//! queue depth, deferred bins, flow-control window occupancy, stall
//! share, shuffle-key cardinality and network transmit rate — the
//! live counterpart of `hamr trace`'s post-mortem occupancy table.
//! The header line carries the cluster-wide partition-resident frame
//! cache as `cache(hit/res MB)`: cumulative resident hits and the
//! megabytes currently pinned.
//!
//! ```text
//! hamr top --addr 127.0.0.1:9099 [--engine hamr] [--interval-ms N] [--ticks N]
//! hamr top --demo [--ticks N]
//! hamr timeline <journal-dir>
//! hamr timeline --diff <journal-dir-a> <journal-dir-b>
//! hamr explain <journal-dir> <job> <key>|--any|--list
//! hamr trace
//! hamr doctor <doctor_<job>.json>
//! ```
//!
//! `hamr explain` reads the data-plane stats snapshots the journal
//! persists per job (`HAMR_STATS=full` runs sample record lineage)
//! and reconstructs a sampled key's path through the dataflow:
//! emitting flowlets and edges, and the final reducer.
//!
//! `hamr top` also renders a cluster-wide task-latency quantile line
//! (p50/p95/p99 in µs, aggregated from the published log2 latency
//! histograms).
//!
//! `hamr timeline` is the offline post-mortem: point it at a
//! `HAMR_JOURNAL` directory (or a parent holding several per-cluster
//! journals) and it reconstructs the run — per-job spans with
//! shuffled-bytes / cache-hit / stall / p99 deltas, watchdog
//! incidents, stuck edges from the audit ledger, and the final state
//! of a run killed mid-flight. `--diff` compares two journals job by
//! job.
//!
//! `hamr trace` runs WordCount (balanced) and HistogramRatings
//! (skewed, five-key shuffle) — the jobs `hamr-workloads` defines — on
//! both engines with tracing on, prints per-flowlet summary tables and
//! a per-worker occupancy table, and writes the timelines as Chrome
//! trace-event JSON into the current directory: `trace_hamr.json`
//! (both HAMR runs; load at ui.perfetto.dev) and `trace_mapred.json`.
//! The skewed HAMR run shrinks the flow-control window to one bin and
//! turns in-node combining off, so its trace shows `flow-control
//! stall` / resume pairs on the loader→map→reduce path; the balanced
//! run shows none. Each run also gets the causal profiler's report
//! (wall-time attribution, top stall edges, critical path) and a
//! `causal_*.json`, and the registry's live gauges are sampled every
//! millisecond of the skewed run into `timeseries_hamr.csv` and
//! counter tracks in `trace_hamr.json`. It takes no flags.
//!
//! `hamr doctor` prints the ranked diagnosis of a flight-recorder dump
//! a supervised run wrote (stuck edge/node, custody ledger, gauge hot
//! spots, event tail). Exit 0 on a clean record, 1 when it shows a
//! watchdog trip or job error, 2 when the file is missing or not a
//! flight record — a bad input never looks like a clean bill of health.
//!
//! Every column is live on every run: occupancy and queue depths are
//! registry gauges the engine moves as it works, net bytes and job
//! totals are counters. `--demo` self-hosts the endpoint: it runs a
//! skewed HistogramRatings workload in-process on 4 nodes, under the
//! default run options, and tops it, so the walkthrough in
//! EXPERIMENTS.md is a single command.
//!
//! Exit codes otherwise: 0 ok, 1 endpoint/scrape/run failure, 2 bad
//! arguments. A reader that closes stdout early (`hamr explain …
//! --list | head`) ends the program quietly with 0.

use hamr_core::{RunOptions, RuntimeConfig, SchedMode, SkewConfig};
use hamr_mapred::MrRunOptions;
use hamr_trace::{
    analyze, chrome_trace_json, chrome_trace_json_with_counters, http_get, parse_prometheus,
    render_attribution, render_critical_path, render_occupancy, render_stall_edges, render_summary,
    task_spans, worker_occupancy, EventKind, FlightRecord, FlowletSummaryRow, GaugeSampler,
    LatencyHistogram, PromSample, RingSink, TaskKind, Timeline, TraceEvent, Tracer,
};
use hamr_workloads::histogram_ratings::HistogramRatings;
use hamr_workloads::wordcount::WordCount;
use hamr_workloads::{Benchmark, Env, SimParams};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Write `text` to stdout. `println!` panics when the reader has gone
/// (`| head`); a closed pipe is the reader saying it has seen enough,
/// so the program ends there, quietly.
fn say(text: &str) {
    if let Err(e) = std::io::stdout().lock().write_all(text.as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("hamr: write to stdout: {e}");
        std::process::exit(1);
    }
}

/// One node's slice of a `/metrics` scrape.
#[derive(Debug, Clone, Copy, Default)]
struct NodeStat {
    workers: f64,
    busy: f64,
    /// Aggregate inbound queue depth across the node's flowlets.
    queue: f64,
    deferred: f64,
    window: f64,
    /// Cumulative flow-control stall time (gauge, µs).
    stall_us: f64,
    /// Cumulative bytes sent (counter).
    net_tx_bytes: f64,
    /// Estimated distinct keys routed to this node over shuffle edges
    /// (data-plane sketches, latest job; summed across edges).
    distinct: f64,
    /// Hottest key's share of this node's shuffle traffic, in permille
    /// (max across edges).
    hot_permille: f64,
}

/// Cluster-wide header figures. The resident-cache series carry no
/// node label — custody of a pinned frame is partition-stable, not
/// per-scrape — so they aggregate here rather than in the node table.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    job_runs: f64,
    trace_drops: f64,
    /// Cumulative resident-cache hits (`hamr_cache_hits_total`).
    cache_hits: f64,
    /// Bytes currently pinned (`hamr_cache_resident_bytes`).
    cache_resident_bytes: f64,
}

fn collect(samples: &[PromSample], engine: &str) -> (BTreeMap<u32, NodeStat>, Totals) {
    let mut nodes: BTreeMap<u32, NodeStat> = BTreeMap::new();
    let mut totals = Totals::default();
    for s in samples {
        if s.label("engine").is_some_and(|e| e != engine) {
            continue;
        }
        match s.name.as_str() {
            "hamr_job_runs_total" => totals.job_runs += s.value,
            "hamr_trace_dropped_events_total" => totals.trace_drops += s.value,
            "hamr_cache_hits_total" => totals.cache_hits += s.value,
            "hamr_cache_resident_bytes" => totals.cache_resident_bytes += s.value,
            _ => {}
        }
        let Some(node) = s.label("node").and_then(|n| n.parse::<u32>().ok()) else {
            continue;
        };
        let stat = nodes.entry(node).or_default();
        match s.name.as_str() {
            "hamr_workers" => stat.workers = s.value,
            "hamr_workers_busy" => stat.busy = s.value,
            "hamr_queue_depth" => stat.queue += s.value,
            "hamr_deferred_bins" => stat.deferred = s.value,
            "hamr_window_inflight" => stat.window = s.value,
            "hamr_stall_us_total" => stat.stall_us += s.value,
            "hamr_net_sent_bytes_total" => stat.net_tx_bytes = s.value,
            "hamr_stats_node_distinct_keys" => stat.distinct += s.value,
            "hamr_stats_node_hot_key_permille" => {
                stat.hot_permille = stat.hot_permille.max(s.value)
            }
            _ => {}
        }
    }
    (nodes, totals)
}

/// Merge every `hamr_flowlet_task_latency_us_bucket` series in a
/// scrape into one cluster-wide log2 bucket map: bucket upper bound
/// in µs → count landing in that bucket (`u64::MAX` is `+Inf`).
/// Cumulatives are un-stacked per series (full label set minus `le`)
/// before merging, so flowlets never contaminate each other.
fn latency_buckets(samples: &[PromSample], engine: &str) -> BTreeMap<u64, u64> {
    let mut series: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    for s in samples {
        if s.name != "hamr_flowlet_task_latency_us_bucket"
            || s.label("engine").is_some_and(|e| e != engine)
        {
            continue;
        }
        let Some(le) = s.label("le") else { continue };
        let le = if le == "+Inf" {
            u64::MAX
        } else {
            match le.parse() {
                Ok(v) => v,
                Err(_) => continue,
            }
        };
        let key: String = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v};"))
            .collect();
        series.entry(key).or_default().push((le, s.value as u64));
    }
    let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, mut cum) in series {
        cum.sort_by_key(|&(le, _)| le);
        let mut prev = 0u64;
        for (le, c) in cum {
            let n = c.saturating_sub(prev);
            prev = prev.max(c);
            if n > 0 {
                *merged.entry(le).or_default() += n;
            }
        }
    }
    merged
}

/// Smallest bucket upper bound covering quantile `q` (0..1].
fn bucket_quantile(buckets: &BTreeMap<u64, u64>, q: f64) -> Option<u64> {
    let total: u64 = buckets.values().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (&le, &n) in buckets {
        seen += n;
        if seen >= rank {
            return Some(le);
        }
    }
    None
}

fn fmt_us(us: u64) -> String {
    if us == u64::MAX {
        "inf".into()
    } else {
        us.to_string()
    }
}

fn fmt_rate(bytes_per_sec: f64) -> String {
    if bytes_per_sec >= 1e6 {
        format!("{:.1}MB/s", bytes_per_sec / 1e6)
    } else if bytes_per_sec >= 1e3 {
        format!("{:.1}KB/s", bytes_per_sec / 1e3)
    } else {
        format!("{bytes_per_sec:.0}B/s")
    }
}

/// Render one tick's table. `prev` (last tick's stats + elapsed time
/// since) turns the cumulative stall/net series into shares and rates.
fn render_tick(
    tick: u64,
    healthz: &str,
    nodes: &BTreeMap<u32, NodeStat>,
    totals: &Totals,
    latency: &BTreeMap<u64, u64>,
    prev: Option<(&BTreeMap<u32, NodeStat>, Duration)>,
) -> String {
    let mut out = format!(
        "tick {tick}  health {healthz}  jobs {:.0}  trace-drops {:.0}  \
         cache(hit/res MB) {:.0}/{:.1}\n",
        totals.job_runs,
        totals.trace_drops,
        totals.cache_hits,
        totals.cache_resident_bytes / 1e6,
    );
    match (
        bucket_quantile(latency, 0.50),
        bucket_quantile(latency, 0.95),
        bucket_quantile(latency, 0.99),
    ) {
        (Some(p50), Some(p95), Some(p99)) => out.push_str(&format!(
            "task-lat us p50/p95/p99 {}/{}/{}\n",
            fmt_us(p50),
            fmt_us(p95),
            fmt_us(p99),
        )),
        _ => out.push_str("task-lat us p50/p95/p99 -/-/- (no completed job yet)\n"),
    }
    out.push_str(
        "node  workers  busy   occ%  queue  defer  window  stall%  \
         keys(distinct/hot%)  net-tx\n",
    );
    for (node, s) in nodes {
        let occ = if s.workers > 0.0 {
            100.0 * s.busy / s.workers
        } else {
            0.0
        };
        let (stall_pct, rate) = match prev {
            Some((p, dt)) if dt.as_secs_f64() > 0.0 => {
                let old = p.get(node).copied().unwrap_or_default();
                let lane_us = dt.as_micros() as f64 * s.workers.max(1.0);
                // Stall time is attributed when a producer resumes, so
                // a burst of long stalls can exceed the poll window;
                // clamp to keep the column a share.
                (
                    (100.0 * (s.stall_us - old.stall_us).max(0.0) / lane_us).min(100.0),
                    (s.net_tx_bytes - old.net_tx_bytes).max(0.0) / dt.as_secs_f64(),
                )
            }
            _ => (0.0, 0.0),
        };
        let keys = if s.distinct > 0.0 {
            format!("{:.0}/{:.1}%", s.distinct, s.hot_permille / 10.0)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{node:<4}  {:<7.0}  {:<4.0}  {occ:>5.1}  {:<5.0}  {:<5.0}  {:<6.0}  {stall_pct:>6.1}  {keys:>19}  {}\n",
            s.workers,
            s.busy,
            s.queue,
            s.deferred,
            s.window,
            fmt_rate(rate),
        ));
    }
    if nodes.is_empty() {
        out.push_str("(no per-node series yet — waiting for a run to publish)\n");
    }
    out
}

fn top_loop(addr: SocketAddr, engine: &str, interval: Duration, ticks: u64) -> Result<(), String> {
    let timeout = Duration::from_secs(2);
    let mut prev: Option<(BTreeMap<u32, NodeStat>, Instant)> = None;
    let mut tick = 0u64;
    loop {
        let (status, body) =
            http_get(addr, "/metrics", timeout).map_err(|e| format!("GET /metrics: {e}"))?;
        if status != 200 {
            return Err(format!("GET /metrics: HTTP {status}"));
        }
        let samples =
            parse_prometheus(&body).map_err(|e| format!("invalid Prometheus text: {e}"))?;
        let healthz = match http_get(addr, "/healthz", timeout) {
            Ok((200, _)) => "ok".to_string(),
            Ok((code, _)) => format!("INCIDENT ({code})"),
            Err(e) => format!("unreachable ({e})"),
        };
        let (nodes, totals) = collect(&samples, engine);
        let latency = latency_buckets(&samples, engine);
        let prev_view = prev.as_ref().map(|(stats, at)| (stats, at.elapsed()));
        say(&format!(
            "{}\n",
            render_tick(tick, &healthz, &nodes, &totals, &latency, prev_view)
        ));
        prev = Some((nodes, Instant::now()));
        tick += 1;
        if ticks > 0 && tick >= ticks {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Self-hosted demo: a skewed HistogramRatings workload looping on a
/// 4-node cluster under the default run options, topped over its own
/// endpoint.
fn run_demo(interval: Duration, ticks: u64) -> Result<(), String> {
    let params = SimParams::test(4, 2).with_scale(1.0);
    let env = Env::with_hamr_sched(params, SchedMode::WorkStealing);
    let bench = HistogramRatings {
        movies: 16,
        users: 50_000,
        max_ratings_per_movie: 100_000,
    };
    bench.seed(&env)?;
    let addr = env
        .hamr
        .serve_introspection(0)
        .map_err(|e| format!("bind endpoint: {e}"))?;
    eprintln!("hamr top demo: serving on http://{addr}/metrics");
    let stop = AtomicBool::new(false);
    let runner = {
        let (stop, env, bench) = (&stop, &env, &bench);
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Err(e) = bench.run_hamr(env) {
                        eprintln!("hamr top demo: run failed: {e}");
                        return;
                    }
                }
            });
            let result = top_loop(addr, "hamr", interval, ticks.max(1));
            stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
            result
        })
    };
    env.hamr.stop_introspection();
    runner
}

fn usage() -> ! {
    eprintln!(
        "usage: hamr top --addr HOST:PORT [--engine hamr|mapred] \
         [--interval-ms N] [--ticks N]\n       hamr top --demo [--ticks N]\n       \
         hamr timeline <journal-dir>\n       \
         hamr timeline --diff <journal-dir-a> <journal-dir-b>\n       \
         hamr explain <journal-dir> <job> <key>|--any|--list\n       \
         hamr trace\n       \
         hamr doctor <doctor_<job>.json>"
    );
    std::process::exit(2);
}

/// Collect every persisted stats snapshot for `job` (oldest first)
/// from a journal directory, laid out as `hamr timeline` takes it.
fn load_stats_snapshots(dir: &Path, job: &str) -> Result<Vec<hamr_trace::StatsSnapshot>, String> {
    Ok(hamr_trace::read_journal_tree(dir)?
        .into_iter()
        .flat_map(|read| read.records)
        .filter_map(|r| match r {
            hamr_trace::JournalRecord::Stats(s) if s.job == job => Some(s),
            _ => None,
        })
        .collect())
}

/// `hamr explain <journal-dir> <job> <key>|--any|--list`: reconstruct
/// a sampled record's path — flowlets, edges, final reducer — from the
/// journal's stats snapshots.
/// Requires the run to have had `HAMR_STATS=full` (lineage sampling).
/// Exit 0 on a rendered path, 1 when the key/journal yields nothing,
/// 2 on bad arguments.
fn explain_main(args: &[String]) -> ! {
    let (dir, job, query) = match args {
        [dir, job, query] => (Path::new(dir), job.as_str(), query.as_str()),
        _ => {
            eprintln!("usage: hamr explain <journal-dir> <job> <key>|--any|--list");
            std::process::exit(2);
        }
    };
    let snaps = match load_stats_snapshots(dir, job) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hamr explain: {e}");
            std::process::exit(1);
        }
    };
    // The last snapshot for the job wins: iterative workloads persist
    // one per job run and the freshest has the complete picture.
    let Some(snap) = snaps.last() else {
        eprintln!(
            "hamr explain: no stats snapshot for job '{job}' in {} \
             (was the run made with HAMR_STATS set?)",
            dir.display()
        );
        std::process::exit(1);
    };
    if snap.samples.is_empty() {
        eprintln!(
            "hamr explain: job '{job}' has per-edge sketches but no lineage samples \
             (rerun with HAMR_STATS=full to sample records)"
        );
        std::process::exit(1);
    }
    let code = match query {
        "--list" => {
            say(&format!("sampled keys in job '{job}':\n"));
            for s in &snap.samples {
                say(&format!(
                    "  {} (hash {:#018x}, {} hops)\n",
                    hamr_trace::stats::format_key(&s.key),
                    s.hash,
                    s.hops.len()
                ));
            }
            0
        }
        "--any" => {
            // Deepest path first: the most informative demo of the hop
            // chain, and deterministic for smoke tests.
            let sample = snap
                .samples
                .iter()
                .max_by_key(|s| (s.hops.len(), s.hash))
                .expect("samples non-empty");
            say(&hamr_trace::stats::render_explain(job, sample));
            0
        }
        key => {
            let needles = hamr_trace::stats::key_query_encodings(key);
            let hash = key
                .strip_prefix("hash:")
                .and_then(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok());
            match snap.find_sample(&needles, hash) {
                Some(sample) => {
                    say(&hamr_trace::stats::render_explain(job, sample));
                    0
                }
                None => {
                    eprintln!(
                        "hamr explain: key '{key}' was not sampled in job '{job}' \
                         ({} sampled keys; try --list, or lower the sampling \
                         stride with HAMR_STATS=full:1)",
                        snap.samples.len()
                    );
                    1
                }
            }
        }
    };
    std::process::exit(code);
}

/// `hamr timeline`: offline post-mortem reconstruction from a
/// durable journal directory. Exit 0 on a rendered timeline, 1 on an
/// unreadable/absent journal, 2 on bad arguments.
fn timeline_main(args: &[String]) -> ! {
    let code = match args {
        [flag, a, b] if flag == "--diff" => {
            match (Timeline::load(Path::new(a)), Timeline::load(Path::new(b))) {
                (Ok(ta), Ok(tb)) => {
                    say(&format!("{}\n", Timeline::render_diff(&ta, &tb)));
                    0
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("hamr timeline: {e}");
                    1
                }
            }
        }
        [dir] => match Timeline::load(Path::new(dir)) {
            Ok(t) => {
                say(&format!("{}\n", t.render()));
                0
            }
            Err(e) => {
                eprintln!("hamr timeline: {e}");
                1
            }
        },
        _ => {
            eprintln!(
                "usage: hamr timeline <journal-dir>\n       \
                 hamr timeline --diff <journal-dir-a> <journal-dir-b>"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Map / reduce phase summary rows from a MapReduce run's trace: the
/// baseline engine has no per-flowlet metrics, so the durations come
/// from its task spans.
fn mr_summary_rows(events: &[TraceEvent]) -> Vec<FlowletSummaryRow> {
    let mut phases: HashMap<TaskKind, (LatencyHistogram, FlowletSummaryRow)> = HashMap::new();
    for span in task_spans(events) {
        let Some(dur) = span.dur_us() else { continue };
        let (hist, row) = phases.entry(span.task).or_default();
        hist.record_us(dur);
        row.tasks += 1;
        row.records_in += span.records_in;
        row.records_out += span.records_out;
    }
    let mut rows: Vec<FlowletSummaryRow> = phases
        .into_iter()
        .map(|(task, (hist, row))| {
            FlowletSummaryRow {
                name: task.name().to_string(),
                kind: task.name().to_string(),
                ..row
            }
            .with_latency(&hist)
        })
        .collect();
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    rows
}

/// Warn when the ring sink dropped events: every analysis downstream
/// of a lossy trace is built on a truncated log.
fn warn_dropped(label: &str, dropped: u64) {
    if dropped > 0 {
        eprintln!(
            "WARNING: {label}: {dropped} events dropped by the trace ring \
             — raise RingSink capacity for complete lineage"
        );
    }
}

/// Run the causal profiler over one run's events and print the report.
fn causal_report(label: &str, events: &[TraceEvent], dropped: u64) -> Result<(), String> {
    let report = analyze(events, dropped);
    say(&format!(
        "== causal attribution: {label} ==\n{}top stall edges:\n{}{}spans: {}/{} complete\n\n",
        render_attribution(&report),
        render_stall_edges(&report),
        render_critical_path(&report),
        report.spans_complete,
        report.spans_seen
    ));
    let path = format!("causal_{label}.json");
    write_file(&path, &report.to_json())?;
    say(&format!("wrote {path}\n\n"));
    Ok(())
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("write {path}: {e}"))
}

/// Nodes of `hamr trace`'s clusters, and so lanes of its rings (a
/// ring files an event under its node).
const TRACE_NODES: usize = 4;
/// Events a lane holds: the skewed run's busiest node emits a few ten
/// thousand.
const TRACE_RING_EVENTS: usize = 1 << 18;

/// `hamr trace`: traced runs of the two workload jobs on both engines,
/// with the causal report of each and a gauge time series of the
/// skewed one, written into the current directory.
fn run_trace() -> Result<(), String> {
    // ---- HAMR engine -------------------------------------------------
    let sink = Arc::new(RingSink::new(TRACE_NODES, TRACE_RING_EVENTS));
    let tracer = Tracer::new(sink.clone());
    let traced = RunOptions {
        tracer: tracer.clone(),
        ..Default::default()
    };

    // Balanced wordcount on a default runtime: no flow-control stalls.
    let env = Env::test(TRACE_NODES, 2);
    WordCount::default().seed(&env)?;
    let (graph, ..) = WordCount::hamr_graph(true)?;
    let wc = env
        .hamr
        .run_with(graph, &traced)
        .map_err(|e| e.to_string())?;
    say(&format!(
        "== HAMR wordcount (balanced) ==\n{}\n",
        render_summary(&wc.metrics.summary_rows())
    ));
    // Drain per run so the causal profiler sees each job in isolation;
    // the chrome export concatenates them again (same tracer epoch).
    let events_wc = sink.drain();
    let dropped_wc = sink.dropped();
    warn_dropped("hamr wordcount", dropped_wc);
    causal_report("hamr_wordcount", &events_wc, dropped_wc)?;

    // Skewed five-key histogram with a one-bin flow-control window and
    // no in-node combining: the hash shuffle funnels every record into
    // five partitions, the window fills instantly, and the trace
    // records stall/resume pairs.
    let env_skew = Env::with_hamr_runtime(
        SimParams::test(TRACE_NODES, 2),
        RuntimeConfig {
            bin_capacity: 16,
            out_window_bins: 1,
            skew: SkewConfig::off(),
            ..Default::default()
        },
    );
    HistogramRatings::default().seed(&env_skew)?;
    let (graph, ..) = HistogramRatings::hamr_graph(false)?;
    // The gauges are live on every run; a time series of them is this
    // tool's wish, so it owns the sampler for exactly this run.
    let every = Duration::from_millis(1);
    let sampler = GaugeSampler::start(env_skew.hamr.registry(), "hamr", every, &tracer);
    let hr = env_skew.hamr.run_with(graph, &traced);
    let series = sampler.stop();
    let hr = hr.map_err(|e| e.to_string())?;
    say(&format!(
        "== HAMR histogram-ratings (skewed, window=1) ==\n{}\n",
        render_summary(&hr.metrics.summary_rows())
    ));
    let events_hr = sink.drain();
    let dropped_hr = sink.dropped().saturating_sub(dropped_wc);
    warn_dropped("hamr histogram-ratings", dropped_hr);
    causal_report("hamr_histratings_skewed", &events_hr, dropped_hr)?;

    let mut events = events_wc;
    events.extend(events_hr);
    let count = |is: fn(&EventKind) -> bool| events.iter().filter(|e| is(&e.kind)).count();
    // Per-worker scheduler view: task counts, busy time, steals, and
    // park time per lane across both runs. The work-stealing scheduler
    // (the default) shows nonzero steal/park columns; under
    // HAMR_SCHED=det they are all dashes.
    say(&format!(
        "== HAMR worker occupancy (both runs) ==\n{}\n\
         hamr: {} events, {} flow-control stalls (skewed run), {} steals\n",
        render_occupancy(&worker_occupancy(&events)),
        events.len(),
        count(|k| matches!(k, EventKind::FlowControlStall { .. })),
        count(|k| matches!(k, EventKind::TaskStolen { .. })),
    ));
    write_file("timeseries_hamr.csv", &series.to_csv())?;
    say(&format!(
        "sampled {} points across {} gauges; wrote timeseries_hamr.csv\n",
        series.samples.len(),
        series.names.len()
    ));
    // Counter tracks ride along in the chrome export, stamped on the
    // tracer's clock: they sit under the skewed run's tasks.
    write_file(
        "trace_hamr.json",
        &chrome_trace_json_with_counters(&events, &series),
    )?;
    say("wrote trace_hamr.json\n\n");

    // ---- MapReduce baseline ------------------------------------------
    let sink_mr = Arc::new(RingSink::new(TRACE_NODES, TRACE_RING_EVENTS));
    let traced_mr = MrRunOptions {
        tracer: Tracer::new(sink_mr.clone()),
        ..Default::default()
    };
    env.mr
        .run_with(&WordCount::mapred_conf("trace/wc-out", true), &traced_mr)
        .map_err(|e| e.to_string())?;
    // The skewed environment's DFS already holds the ratings input;
    // MapReduce has no flow-control window, so the same skew shows up
    // as long reduce tasks instead of stalls.
    env_skew
        .mr
        .run_with(
            &HistogramRatings::mapred_conf("trace/hr-out", true),
            &traced_mr,
        )
        .map_err(|e| e.to_string())?;
    let events_mr = sink_mr.drain();
    let dropped_mr = sink_mr.dropped();
    warn_dropped("mapred", dropped_mr);
    say(&format!(
        "== MapReduce wordcount + histogram-ratings ==\n{}\nmapred: {} events\n",
        render_summary(&mr_summary_rows(&events_mr)),
        events_mr.len()
    ));
    causal_report("mapred_both", &events_mr, dropped_mr)?;
    write_file("trace_mapred.json", &chrome_trace_json(&events_mr))?;
    say("wrote trace_mapred.json\n\n\
         Open the JSON files at https://ui.perfetto.dev to browse the timelines.\n");
    Ok(())
}

fn trace_main(args: &[String]) -> ! {
    if !args.is_empty() {
        usage();
    }
    if let Err(e) = run_trace() {
        eprintln!("hamr trace: {e}");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// `hamr doctor <file>`: print a flight-recorder diagnosis.
fn doctor_main(args: &[String]) -> ! {
    let [path] = args else { usage() };
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("hamr doctor: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match FlightRecord::parse(&raw) {
        Ok(record) => {
            say(&record.render());
            let bad = record.trip.is_some() || record.error.is_some();
            std::process::exit(i32::from(bad));
        }
        Err(e) => {
            eprintln!("hamr doctor: {path} is not a flight-recorder dump: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, args)) = argv.split_first() else {
        usage()
    };
    match command.as_str() {
        "timeline" => timeline_main(args),
        "explain" => explain_main(args),
        "trace" => trace_main(args),
        "doctor" => doctor_main(args),
        "top" => {}
        _ => usage(),
    }
    let mut addr: Option<SocketAddr> = None;
    let mut engine = "hamr".to_string();
    let mut interval = Duration::from_millis(1000);
    let mut ticks = 0u64;
    let mut demo = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("hamr top: {name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => match value("--addr").parse() {
                Ok(a) => addr = Some(a),
                Err(e) => {
                    eprintln!("hamr top: --addr: {e}");
                    std::process::exit(2);
                }
            },
            "--engine" => engine = value("--engine").to_string(),
            "--interval-ms" => match value("--interval-ms").parse::<u64>() {
                Ok(ms) => interval = Duration::from_millis(ms.max(10)),
                Err(e) => {
                    eprintln!("hamr top: --interval-ms: {e}");
                    std::process::exit(2);
                }
            },
            "--ticks" => match value("--ticks").parse() {
                Ok(n) => ticks = n,
                Err(e) => {
                    eprintln!("hamr top: --ticks: {e}");
                    std::process::exit(2);
                }
            },
            "--demo" => demo = true,
            _ => usage(),
        }
    }
    let result = if demo {
        run_demo(interval, if ticks == 0 { 10 } else { ticks })
    } else {
        let Some(addr) = addr else { usage() };
        top_loop(addr, &engine, interval, ticks)
    };
    if let Err(e) = result {
        eprintln!("hamr top: {e}");
        std::process::exit(1);
    }
}
