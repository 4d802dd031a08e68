//! `hamr trace` runs WordCount (balanced) and HistogramRatings
//! (skewed, five-key shuffle) — the jobs `hamr-workloads` defines — on
//! both engines with tracing on, prints the causal profiler's report
//! for each run (wall-time attribution and top stall edges), and
//! writes the timelines as Chrome trace-event JSON into the current
//! directory: `trace_hamr.json` (both HAMR runs; load at
//! ui.perfetto.dev) and `trace_mapred.json`. The skewed HAMR run
//! shrinks the flow-control window to one bin and turns in-node
//! combining off, so its trace shows `flow-control stall` / resume
//! pairs on the loader→map→reduce path; the balanced run shows none.
//! Per-flowlet counts and latencies are `/metrics`' and per-worker
//! occupancy is `hamr top`'s; this prints neither. It takes no flags.

use super::{say, usage};
use hamr_core::{RunOptions, RuntimeConfig, SkewConfig};
use hamr_mapred::MrRunOptions;
use hamr_trace::{
    analyze, chrome_trace_json, render_attribution, render_stall_edges, RingSink, TraceEvent,
    Tracer,
};
use hamr_workloads::histogram_ratings::HistogramRatings;
use hamr_workloads::wordcount::WordCount;
use hamr_workloads::{Benchmark, Env, SimParams};
use std::sync::Arc;

/// Run the causal profiler over one run's events and print the report
/// (which warns when the ring dropped events).
fn causal_report(label: &str, events: &[TraceEvent], dropped: u64) {
    let report = analyze(events, dropped);
    say(&format!(
        "== causal attribution: {label} ==\n{}top stall edges:\n{}\n",
        render_attribution(&report),
        render_stall_edges(&report),
    ));
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

/// Traced runs of the two workload jobs on both engines, with the
/// causal report of each, written into the current directory.
fn run_trace() -> Result<(), String> {
    // ---- HAMR engine -------------------------------------------------
    let sink = Arc::new(RingSink::new(TRACE_NODES, TRACE_RING_EVENTS));
    let traced = RunOptions {
        tracer: Tracer::new(sink.clone()),
        ..Default::default()
    };

    // Balanced wordcount on a default runtime: no flow-control stalls.
    let env = Env::test(TRACE_NODES, 2);
    WordCount::default().seed(&env)?;
    let (graph, ..) = WordCount::hamr_graph(true)?;
    env.hamr
        .run_with(graph, &traced)
        .map_err(|e| e.to_string())?;
    // Drain per run so the causal profiler sees each job in isolation;
    // the chrome export concatenates them again (same tracer epoch).
    let events_wc = sink.drain();
    let dropped_wc = sink.dropped();
    causal_report("hamr_wordcount", &events_wc, dropped_wc);

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
    env_skew
        .hamr
        .run_with(graph, &traced)
        .map_err(|e| e.to_string())?;
    let events_hr = sink.drain();
    let dropped_hr = sink.dropped().saturating_sub(dropped_wc);
    causal_report("hamr_histratings_skewed", &events_hr, dropped_hr);

    let mut events = events_wc;
    events.extend(events_hr);
    write_file("trace_hamr.json", &chrome_trace_json(&events))?;

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
    causal_report("mapred_both", &events_mr, dropped_mr);
    write_file("trace_mapred.json", &chrome_trace_json(&events_mr))?;
    eprintln!("wrote trace_hamr.json and trace_mapred.json: open them at https://ui.perfetto.dev");
    Ok(())
}

/// `hamr trace`: exit 0 once both timelines are written, 1 on a failed
/// run or write, 2 on any argument.
pub fn main(args: &[String]) -> ! {
    if !args.is_empty() {
        usage();
    }
    if let Err(e) = run_trace() {
        eprintln!("hamr trace: {e}");
        std::process::exit(1);
    }
    std::process::exit(0);
}
