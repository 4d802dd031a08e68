//! `hamr top` polls a cluster's embedded introspection endpoint (see
//! `HAMR_HTTP` / `Cluster::serve_introspection`) and renders a
//! per-node table each tick: worker occupancy, aggregate flowlet
//! queue depth, deferred bins, flow-control window occupancy, stall
//! share, shuffle-key cardinality and network transmit rate: the one
//! place worker occupancy is reported.
//! The header line carries the cluster-wide partition-resident frame
//! cache as `cache(hit/res MB)`: cumulative resident hits and the
//! megabytes currently pinned. Below it sits a cluster-wide
//! task-latency quantile line (p50/p95/p99, each the upper bound of
//! its log2 bucket in the published latency histograms, merged).
//!
//! Every column is live on every run: occupancy and queue depths are
//! registry gauges the engine moves as it works, net bytes and job
//! totals are counters. `--demo` self-hosts the endpoint: it runs a
//! skewed HistogramRatings workload in-process on 4 nodes, under the
//! default run options, and tops it, so the walkthrough in
//! EXPERIMENTS.md is a single command.

use super::{say, usage};
use hamr_core::SchedMode;
use hamr_trace::{fmt_us, http_get, parse_prometheus, Log2Hist, PromSample};
use hamr_workloads::histogram_ratings::HistogramRatings;
use hamr_workloads::{Benchmark, Env, SimParams};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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
/// scrape into one cluster-wide log2 histogram: each bucket's count
/// lands at its upper bound `le` (`+Inf` at `u64::MAX`). Cumulatives
/// are un-stacked per series (full label set minus `le`) before
/// merging, so flowlets never contaminate each other.
fn latency_hist(samples: &[PromSample], engine: &str) -> Log2Hist {
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
    let mut merged = Log2Hist::new();
    for (_, mut cum) in series {
        cum.sort_by_key(|&(le, _)| le);
        let mut prev = 0u64;
        for (le, c) in cum {
            merged.record_n(le, c.saturating_sub(prev));
            prev = prev.max(c);
        }
    }
    merged
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
    latency: &Log2Hist,
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
    if latency.count() == 0 {
        out.push_str("task-lat p50/p95/p99 -/-/- (no completed job yet)\n");
    } else {
        let [p50, p95, p99] = [0.50, 0.95, 0.99].map(|q| fmt_us(latency.quantile(q)));
        out.push_str(&format!("task-lat p50/p95/p99 {p50}/{p95}/{p99}\n"));
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
        let latency = latency_hist(&samples, engine);
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

/// `hamr top --addr HOST:PORT [--engine E] [--interval-ms N] [--ticks N]`
/// or `hamr top --demo [--ticks N]`. Exit 1 on an endpoint, scrape or
/// run failure, 2 on bad arguments.
pub fn main(args: &[String]) {
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
