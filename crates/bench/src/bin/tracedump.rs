//! tracedump: run WordCount (balanced) and HistogramRatings (skewed,
//! five-key shuffle) on both engines with tracing enabled, write the
//! timelines as Chrome trace-event JSON, and print per-flowlet summary
//! tables.
//!
//! Outputs:
//!   * `trace_hamr.json`   — both HAMR runs (load at ui.perfetto.dev)
//!   * `trace_mapred.json` — both MapReduce runs
//!
//! Flags:
//!   * `--causal`     — additionally run the causal profiler over each
//!     run's events: wall-time attribution table, top stall edges, and
//!     the critical path, plus `causal_*.json` reports.
//!   * `--timeseries` — sample the registry's live gauges (bin-queue
//!     depths, window occupancy, in-flight fabric bytes, worker
//!     occupancy) every millisecond of the skewed run; writes
//!     `timeseries_hamr.csv` and embeds counter tracks in
//!     `trace_hamr.json`.
//!   * `--doctor <doctor_<job>.json>` — post-mortem mode: read a
//!     flight-recorder dump written by a supervised run and print the
//!     ranked diagnosis (stuck edge/node, custody ledger, gauge hot
//!     spots, event tail). Exits 2 if the file is missing or not a
//!     flight-recorder document, 1 if the record shows a trip or error.
//!
//! The skewed HAMR run shrinks the flow-control window to one bin so
//! the trace visibly shows `flow-control-stall` / resume pairs on the
//! loader→map→reduce path; the balanced WordCount run shows none.

use hamr_core::{typed, Emitter, Exchange, JobBuilder, JobResult, RunOptions, RuntimeConfig};
use hamr_mapred::{line_map_fn, reduce_fn, JobConf, MrRunOptions, ReduceOutput};
use hamr_trace::{
    analyze, chrome_trace_json, chrome_trace_json_with_counters, render_attribution,
    render_critical_path, render_occupancy, render_stall_edges, render_summary, worker_occupancy,
    EventKind, FlowletSummaryRow, GaugeSampler, LatencyHistogram, RingSink, TaskKind, TraceEvent,
    Tracer,
};
use hamr_workloads::gen::movies::parse_movie_line;
use hamr_workloads::histogram_ratings::HistogramRatings;
use hamr_workloads::wordcount::WordCount;
use hamr_workloads::{Benchmark, Env, SimParams};
use std::collections::HashMap;
use std::sync::Arc;

const WC_INPUT: &str = "wordcount/input.txt";
const HR_INPUT: &str = "histratings/input.txt";

fn run_hamr_wordcount(env: &Env, tracer: Tracer) -> JobResult {
    let mut job = JobBuilder::new("wordcount");
    let loader = job.add_loader("TextLoader", typed::dfs_line_loader(WC_INPUT));
    let split = job.add_map(
        "SplitMap",
        typed::map_fn(|_off: u64, line: String, out: &mut Emitter| {
            for w in line.split_whitespace() {
                out.emit_t(0, &w.to_string(), &1u64);
            }
        }),
    );
    let count = job.add_partial_reduce("CountPartial", typed::sum_reducer::<String>());
    job.connect(loader, split, Exchange::Local);
    job.connect(split, count, Exchange::Hash);
    job.capture_output(count);
    let opts = RunOptions {
        tracer,
        ..Default::default()
    };
    env.hamr
        .run_with(job.build().expect("wordcount graph"), &opts)
        .expect("wordcount run")
}

fn run_hamr_histratings(env: &Env, tracer: Tracer) -> JobResult {
    let mut job = JobBuilder::new("histogram-ratings");
    let loader = job.add_loader("TextLoader", typed::dfs_line_loader(HR_INPUT));
    let rating_map = job.add_map(
        "RatingMap",
        typed::map_fn(|_off: u64, line: String, out: &mut Emitter| {
            if let Some((_, ratings)) = parse_movie_line(&line) {
                for (_, r) in ratings {
                    out.emit_t(0, &u64::from(r), &1u64);
                }
            }
        }),
    );
    let sum = job.add_partial_reduce("RatingSum", typed::sum_reducer::<u64>());
    job.connect(loader, rating_map, Exchange::Local);
    job.connect(rating_map, sum, Exchange::Hash);
    job.capture_output(sum);
    let opts = RunOptions {
        tracer,
        ..Default::default()
    };
    env.hamr
        .run_with(job.build().expect("histratings graph"), &opts)
        .expect("histratings run")
}

fn wordcount_conf(output: &str) -> JobConf {
    let mapper = Arc::new(line_map_fn(|_off, line, out| {
        for w in line.split_whitespace() {
            out.emit_t(&w.to_string(), &1u64);
        }
    }));
    let reducer = Arc::new(reduce_fn(
        |k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
            out.emit_t(&k, &vs.iter().sum::<u64>());
        },
    ));
    JobConf::new(
        "wordcount",
        vec![WC_INPUT.to_string()],
        output,
        mapper,
        reducer.clone(),
    )
    .with_combiner(reducer)
}

fn histratings_conf(output: &str) -> JobConf {
    let mapper = Arc::new(line_map_fn(|_off, line, out| {
        if let Some((_, ratings)) = parse_movie_line(line) {
            for (_, r) in ratings {
                out.emit_t(&u64::from(r), &1u64);
            }
        }
    }));
    let reducer = Arc::new(reduce_fn(|k: u64, vs: Vec<u64>, out: &mut ReduceOutput| {
        out.emit_t(&k, &vs.iter().sum::<u64>());
    }));
    JobConf::new(
        "histogram-ratings",
        vec![HR_INPUT.to_string()],
        output,
        mapper,
        reducer.clone(),
    )
    .with_combiner(reducer)
}

/// Build map/reduce phase summary rows from a MapReduce run's trace:
/// the baseline engine has no per-flowlet metrics, so the durations
/// come from pairing `TaskStart`/`TaskEnd` per (node, worker) lane.
fn mr_summary_rows(events: &[TraceEvent]) -> Vec<FlowletSummaryRow> {
    let mut open: HashMap<(u32, u32), u64> = HashMap::new();
    let mut hist: HashMap<TaskKind, (LatencyHistogram, u64, u64, u64)> = HashMap::new();
    for e in events {
        match &e.kind {
            EventKind::TaskStart { .. } => {
                open.insert((e.node, e.worker), e.t_us);
            }
            EventKind::TaskEnd {
                task,
                records_in,
                records_out,
                ..
            } => {
                if let Some(start) = open.remove(&(e.node, e.worker)) {
                    let entry = hist.entry(*task).or_default();
                    entry.0.record_us(e.t_us.saturating_sub(start));
                    entry.1 += 1;
                    entry.2 += records_in;
                    entry.3 += records_out;
                }
            }
            _ => {}
        }
    }
    let mut rows: Vec<FlowletSummaryRow> = hist
        .into_iter()
        .map(|(task, (h, tasks, rec_in, rec_out))| {
            FlowletSummaryRow {
                name: task.name().to_string(),
                kind: task.name().to_string(),
                tasks,
                records_in: rec_in,
                records_out: rec_out,
                ..Default::default()
            }
            .with_latency(&h)
        })
        .collect();
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    rows
}

fn count_stalls(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FlowControlStall { .. }))
        .count()
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
fn causal_report(label: &str, events: &[TraceEvent], dropped: u64) {
    let report = analyze(events, dropped);
    println!("== causal attribution: {label} ==");
    print!("{}", render_attribution(&report));
    println!("top stall edges:");
    print!("{}", render_stall_edges(&report));
    print!("{}", render_critical_path(&report));
    println!(
        "spans: {}/{} complete\n",
        report.spans_complete, report.spans_seen
    );
    let path = format!(
        "causal_{}.json",
        label.replace([' ', '('], "_").replace(')', "")
    );
    std::fs::write(&path, report.to_json()).expect("write causal report");
    println!("wrote {path}\n");
}

/// `tracedump --doctor <file>`: print a flight-recorder diagnosis.
///
/// Exit codes: 0 = clean record, 1 = the record shows a watchdog trip
/// or job error, 2 = the input file is missing or unparsable. A bad
/// input must never look like a clean bill of health.
fn run_doctor(path: &str) -> i32 {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("tracedump: cannot read {path}: {e}");
            return 2;
        }
    };
    match hamr_trace::FlightRecord::parse(&raw) {
        Ok(record) => {
            let bad = record.trip.is_some() || record.error.is_some();
            print!("{}", record.render());
            i32::from(bad)
        }
        Err(e) => {
            eprintln!("tracedump: {path} is not a flight-recorder dump: {e}");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--doctor") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("usage: tracedump --doctor <doctor_<job>.json>");
            std::process::exit(2);
        };
        std::process::exit(run_doctor(path));
    }
    let causal = args.iter().any(|a| a == "--causal");
    let timeseries = args.iter().any(|a| a == "--timeseries");

    // ---- HAMR engine -------------------------------------------------
    let sink = Arc::new(RingSink::new(64, 1 << 16));
    let tracer = Tracer::new(sink.clone());

    // Balanced wordcount on a default runtime: no flow-control stalls.
    let env = Env::test(4, 2);
    WordCount::default().seed(&env).expect("seed wordcount");
    let wc = run_hamr_wordcount(&env, tracer.clone());
    println!("== HAMR wordcount (balanced) ==");
    println!("{}", render_summary(&wc.metrics.summary_rows()));
    // Drain per run so the causal profiler sees each job in isolation;
    // the chrome export concatenates them again (same tracer epoch).
    let events_wc = sink.drain();
    let dropped_wc = sink.dropped();
    warn_dropped("hamr wordcount", dropped_wc);
    if causal {
        causal_report("hamr_wordcount", &events_wc, dropped_wc);
    }

    // Skewed five-key histogram with a one-bin flow-control window:
    // the hash shuffle funnels everything into five partitions, the
    // window fills instantly, and the trace records stall/resume pairs.
    let env_skew = Env::with_hamr_runtime(
        SimParams::test(4, 2),
        RuntimeConfig {
            bin_capacity: 16,
            out_window_bins: 1,
            ..Default::default()
        },
    );
    HistogramRatings::default()
        .seed(&env_skew)
        .expect("seed histratings");
    // The gauges are live on every run; a time series of them is this
    // tool's wish, so it owns the sampler for exactly this run.
    let sampler = timeseries.then(|| {
        let every = std::time::Duration::from_millis(1);
        GaugeSampler::start(env_skew.hamr.registry(), "hamr", every, &tracer)
    });
    let hr = run_hamr_histratings(&env_skew, tracer.clone());
    let series = sampler.map(GaugeSampler::stop);
    println!("== HAMR histogram-ratings (skewed, window=1) ==");
    println!("{}", render_summary(&hr.metrics.summary_rows()));
    let events_hr = sink.drain();
    let dropped_hr = sink.dropped().saturating_sub(dropped_wc);
    warn_dropped("hamr histogram-ratings", dropped_hr);
    if causal {
        causal_report("hamr_histratings_skewed", &events_hr, dropped_hr);
    }

    let mut events = events_wc;
    events.extend(events_hr);
    // Per-worker scheduler view: task counts, busy time, steals, and
    // park time per lane across both runs. The work-stealing scheduler
    // (the default) shows nonzero steal/park columns; under
    // HAMR_SCHED=det they are all dashes.
    println!("== HAMR worker occupancy (both runs) ==");
    println!("{}", render_occupancy(&worker_occupancy(&events)));
    println!(
        "hamr: {} events, {} flow-control stalls (skewed run), {} steals",
        events.len(),
        count_stalls(&events),
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TaskStolen { .. }))
            .count()
    );
    if let Some(series) = series {
        std::fs::write("timeseries_hamr.csv", series.to_csv()).expect("write timeseries csv");
        println!(
            "sampled {} points across {} gauges; wrote timeseries_hamr.csv",
            series.samples.len(),
            series.names.len()
        );
        // Counter tracks ride along in the chrome export, stamped on
        // the tracer's clock: they sit under the skewed run's tasks.
        std::fs::write(
            "trace_hamr.json",
            chrome_trace_json_with_counters(&events, &series),
        )
        .expect("write trace_hamr.json");
    } else {
        std::fs::write("trace_hamr.json", chrome_trace_json(&events))
            .expect("write trace_hamr.json");
    }
    println!("wrote trace_hamr.json\n");

    // ---- MapReduce baseline ------------------------------------------
    let sink_mr = Arc::new(RingSink::new(64, 1 << 16));
    let opts_mr = MrRunOptions {
        tracer: Tracer::new(sink_mr.clone()),
        ..Default::default()
    };

    env.mr
        .run_with(&wordcount_conf("tracedump/wc-out"), &opts_mr)
        .expect("mapred wordcount");
    // Reuse the skewed environment's DFS so the input already exists;
    // MapReduce has no flow-control window, so the same skew shows up
    // as long reduce tasks instead of stalls.
    env_skew
        .mr
        .run_with(&histratings_conf("tracedump/hr-out"), &opts_mr)
        .expect("mapred histratings");

    let events_mr = sink_mr.drain();
    let dropped_mr = sink_mr.dropped();
    warn_dropped("mapred", dropped_mr);
    println!("== MapReduce wordcount + histogram-ratings ==");
    println!("{}", render_summary(&mr_summary_rows(&events_mr)));
    println!("mapred: {} events", events_mr.len());
    if causal {
        causal_report("mapred_both", &events_mr, dropped_mr);
    }
    std::fs::write("trace_mapred.json", chrome_trace_json(&events_mr))
        .expect("write trace_mapred.json");
    println!("wrote trace_mapred.json");
    println!("\nOpen the JSON files at https://ui.perfetto.dev to browse the timelines.");
}
