//! Plain-text per-flowlet summary rendering and per-worker occupancy
//! analysis.

use crate::{EventKind, Log2Hist, TaskKind, TraceEvent};
use std::collections::{BTreeMap, HashMap};

/// One `TaskEnd`, with the `TaskStart` it closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpan {
    pub node: u32,
    pub worker: u32,
    pub task: TaskKind,
    pub flowlet: u32,
    /// `None` when no start on this lane matches — the ring dropped it.
    pub start_us: Option<u64>,
    pub end_us: u64,
    pub records_in: u64,
    pub records_out: u64,
}

impl TaskSpan {
    /// How long the task ran, when its start was seen.
    pub fn dur_us(&self) -> Option<u64> {
        self.start_us.map(|ts| self.end_us.saturating_sub(ts))
    }
}

/// Pair every `TaskEnd` with the innermost open `TaskStart` of the
/// same task kind and flowlet on its `(node, worker)` lane — tasks on
/// one worker nest. Events need not be sorted. One span per `TaskEnd`,
/// in time order; a start that never ends is dropped.
pub fn task_spans(events: &[TraceEvent]) -> Vec<TaskSpan> {
    let mut evs: Vec<&TraceEvent> = events.iter().collect();
    evs.sort_by_key(|e| e.t_us);
    type OpenTask = (u64, TaskKind, u32);
    let mut open: HashMap<(u32, u32), Vec<OpenTask>> = HashMap::new();
    let mut spans = Vec::new();
    for ev in evs {
        match &ev.kind {
            EventKind::TaskStart { task, flowlet } => {
                open.entry((ev.node, ev.worker))
                    .or_default()
                    .push((ev.t_us, *task, *flowlet));
            }
            EventKind::TaskEnd {
                task,
                flowlet,
                records_in,
                records_out,
            } => {
                let stack = open.entry((ev.node, ev.worker)).or_default();
                let start = stack
                    .iter()
                    .rposition(|(_, t, f)| t == task && f == flowlet)
                    .map(|i| stack.remove(i));
                spans.push(TaskSpan {
                    node: ev.node,
                    worker: ev.worker,
                    task: *task,
                    flowlet: *flowlet,
                    start_us: start.map(|s| s.0),
                    end_us: ev.t_us,
                    records_in: *records_in,
                    records_out: *records_out,
                });
            }
            _ => {}
        }
    }
    spans
}

/// One row of the per-flowlet summary table. Engines fill these from
/// their aggregated metrics; `render_summary` turns them into text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowletSummaryRow {
    pub name: String,
    pub kind: String,
    pub tasks: u64,
    pub records_in: u64,
    pub records_out: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    /// Cumulative flow-control stall time, microseconds.
    pub stall_us: u64,
    /// Number of flow-control stall occurrences.
    pub stalls: u64,
    pub spilled_bytes: u64,
}

impl FlowletSummaryRow {
    /// Convenience: fill the latency columns from a histogram.
    pub fn with_latency(mut self, hist: &Log2Hist) -> Self {
        self.p50_us = hist.quantile(0.50);
        self.p95_us = hist.quantile(0.95);
        self.p99_us = hist.quantile(0.99);
        self
    }
}

/// The one duration format of every `hamr trace` table: whole
/// microseconds below 10 ms, then milliseconds, then seconds.
pub(crate) fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 10 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// Render an aligned fixed-width table of per-flowlet statistics.
pub fn render_summary(rows: &[FlowletSummaryRow]) -> String {
    const HEADERS: [&str; 10] = [
        "flowlet", "kind", "tasks", "rec_in", "rec_out", "p50", "p95", "p99", "stall", "spilled",
    ];
    let cells: Vec<[String; 10]> = rows
        .iter()
        .map(|r| {
            [
                r.name.clone(),
                r.kind.clone(),
                r.tasks.to_string(),
                r.records_in.to_string(),
                r.records_out.to_string(),
                fmt_us(r.p50_us),
                fmt_us(r.p95_us),
                fmt_us(r.p99_us),
                unless_zero(r.stalls, |n| format!("{} ({n}x)", fmt_us(r.stall_us))),
                unless_zero(r.spilled_bytes, fmt_bytes),
            ]
        })
        .collect();

    render_table(HEADERS, &cells)
}

/// A cell that reads `-` when there is nothing to report.
fn unless_zero(n: u64, show: impl FnOnce(u64) -> String) -> String {
    if n == 0 {
        "-".to_string()
    } else {
        show(n)
    }
}

/// An aligned fixed-width text table: header, rule, rows; columns
/// left-aligned two spaces apart, no trailing padding.
fn render_table<const N: usize>(headers: [&str; N], rows: &[[String; N]]) -> String {
    let mut widths = headers.map(str::len);
    for row in rows {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.chars().count());
        }
    }
    let mut out = String::new();
    let mut emit_row = |cols: &[String; N]| {
        for (i, (c, w)) in cols.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(c);
            for _ in c.chars().count()..*w {
                out.push(' ');
            }
        }
        // Trim right-padding on the last column.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    emit_row(&headers.map(str::to_string));
    emit_row(&widths.map(|w| "-".repeat(w)));
    rows.iter().for_each(emit_row);
    out
}

/// Per-worker occupancy derived from a trace: how many tasks each
/// worker lane ran, how long it was busy, how often it stole, and how
/// long it sat parked. The scheduler's balance report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerOccupancyRow {
    pub node: u32,
    pub worker: u32,
    /// Tasks completed on this lane (`TaskEnd` count).
    pub tasks: u64,
    /// Sum of matched `TaskStart`/`TaskEnd` span durations.
    pub busy_us: u64,
    /// Successful steal operations by this lane.
    pub steals: u64,
    /// Park intervals (`WorkerUnparked` count).
    pub parks: u64,
    /// Total time parked.
    pub parked_us: u64,
    /// Distribution of this lane's task latencies.
    pub latency: Log2Hist,
}

/// Fold a trace into per-(node, worker) occupancy rows, sorted by
/// (node, worker). Only real worker lanes appear — the synthetic
/// runtime/net/disk lanes are excluded.
pub fn worker_occupancy(events: &[TraceEvent]) -> Vec<WorkerOccupancyRow> {
    let mut rows: BTreeMap<(u32, u32), WorkerOccupancyRow> = BTreeMap::new();
    for ev in events.iter().filter(|e| e.worker < crate::WORKER_DISK) {
        let row = rows
            .entry((ev.node, ev.worker))
            .or_insert_with(|| WorkerOccupancyRow {
                node: ev.node,
                worker: ev.worker,
                ..Default::default()
            });
        match &ev.kind {
            EventKind::TaskStolen { .. } => row.steals += 1,
            EventKind::WorkerUnparked { parked_us } => {
                row.parks += 1;
                row.parked_us += parked_us;
            }
            _ => {}
        }
    }
    for span in task_spans(events) {
        // A worker lane has its row by now (the end is an event on
        // it); a synthetic lane has none.
        let Some(row) = rows.get_mut(&(span.node, span.worker)) else {
            continue;
        };
        row.tasks += 1;
        if let Some(dur) = span.dur_us() {
            row.busy_us += dur;
            row.latency.record(dur);
        }
    }
    rows.into_values().collect()
}

/// Render an aligned per-worker occupancy table.
pub fn render_occupancy(rows: &[WorkerOccupancyRow]) -> String {
    const HEADERS: [&str; 7] = [
        "node", "worker", "tasks", "busy", "steals", "parks", "parked",
    ];
    let cells: Vec<[String; 7]> = rows
        .iter()
        .map(|r| {
            [
                r.node.to_string(),
                r.worker.to_string(),
                r.tasks.to_string(),
                fmt_us(r.busy_us),
                unless_zero(r.steals, |n| n.to_string()),
                unless_zero(r.parks, |n| n.to_string()),
                unless_zero(r.parked_us, fmt_us),
            ]
        })
        .collect();
    render_table(HEADERS, &cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let rows = vec![
            FlowletSummaryRow {
                name: "SplitMap".into(),
                kind: "map".into(),
                tasks: 128,
                records_in: 100_000,
                records_out: 640_000,
                p50_us: 250,
                p95_us: 800,
                p99_us: 1500,
                stall_us: 52_000,
                stalls: 12,
                spilled_bytes: 0,
            },
            FlowletSummaryRow {
                name: "CountPartial".into(),
                kind: "partial-reduce".into(),
                tasks: 64,
                records_in: 640_000,
                records_out: 9_000,
                p50_us: 90,
                p95_us: 200,
                p99_us: 300,
                stall_us: 0,
                stalls: 0,
                spilled_bytes: 3 * 1024 * 1024 * 1024,
            },
        ];
        let table = render_summary(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "header + rule + 2 rows:\n{table}");
        assert!(lines[0].starts_with("flowlet"));
        assert!(lines[2].contains("SplitMap"));
        assert!(lines[2].contains("52.0ms (12x)"));
        assert!(lines[3].contains("3072.0MiB"));
        assert!(lines[3].contains(" - "), "zero stall shown as dash");
    }

    #[test]
    fn with_latency_copies_percentiles() {
        let mut h = Log2Hist::new();
        for us in [10u64, 20, 30, 40, 1000] {
            h.record(us);
        }
        let row = FlowletSummaryRow::default().with_latency(&h);
        assert!(row.p50_us <= row.p95_us && row.p95_us <= row.p99_us);
        assert!(row.p99_us >= 1000);
    }

    #[test]
    fn empty_input_still_renders_header() {
        let table = render_summary(&[]);
        assert!(table.starts_with("flowlet"));
        assert_eq!(table.lines().count(), 2);
    }

    #[test]
    fn occupancy_folds_tasks_steals_and_parks() {
        use crate::tests::ev;
        use crate::TaskKind;
        let events = vec![
            ev(
                0,
                0,
                0,
                EventKind::TaskStart {
                    task: TaskKind::MapBin,
                    flowlet: 1,
                },
            ),
            ev(
                100,
                0,
                0,
                EventKind::TaskEnd {
                    task: TaskKind::MapBin,
                    flowlet: 1,
                    records_in: 4,
                    records_out: 4,
                },
            ),
            ev(
                50,
                0,
                1,
                EventKind::TaskStolen {
                    thief: 1,
                    victim: 0,
                    flowlet: 1,
                },
            ),
            ev(400, 0, 1, EventKind::WorkerUnparked { parked_us: 300 }),
            // Synthetic lanes are excluded.
            ev(
                10,
                0,
                crate::WORKER_RUNTIME,
                EventKind::BinShipped {
                    flowlet: 1,
                    edge: 0,
                    dst: 1,
                    records: 4,
                    bytes: 64,
                },
            ),
        ];
        let rows = worker_occupancy(&events);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].node, rows[0].worker), (0, 0));
        assert_eq!(rows[0].tasks, 1);
        assert_eq!(rows[0].busy_us, 100);
        assert_eq!(rows[1].steals, 1);
        assert_eq!(rows[1].parks, 1);
        assert_eq!(rows[1].parked_us, 300);
        let table = render_occupancy(&rows);
        assert!(table.starts_with("node"));
        assert!(table.lines().count() == 4);
        assert!(table.contains("300us"));
    }

    #[test]
    fn nested_tasks_pair_innermost_first() {
        use crate::TaskKind::{FireReduce, MapBin, ReduceIngest};
        let start = |t_us, task| TraceEvent {
            t_us,
            node: 0,
            worker: 0,
            kind: EventKind::TaskStart { task, flowlet: 1 },
        };
        let end = |t_us, task, records_out| TraceEvent {
            t_us,
            node: 0,
            worker: 0,
            kind: EventKind::TaskEnd {
                task,
                flowlet: 1,
                records_in: 5,
                records_out,
            },
        };
        // fire-reduce wraps reduce-ingest on the same worker; the
        // map-bin end lost its start to the ring.
        let spans = task_spans(&[
            start(0, FireReduce),
            start(10, ReduceIngest),
            end(20, ReduceIngest, 5),
            end(30, MapBin, 2),
            end(40, FireReduce, 1),
        ]);
        let seen: Vec<_> = spans
            .iter()
            .map(|s| (s.task, s.start_us, s.dur_us(), s.records_out))
            .collect();
        assert_eq!(
            seen,
            [
                (ReduceIngest, Some(10), Some(10), 5),
                (MapBin, None, None, 2),
                (FireReduce, Some(0), Some(40), 1),
            ]
        );
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(fmt_us(999), "999us");
        assert_eq!(fmt_us(52_000), "52.0ms");
        assert_eq!(fmt_us(12_000_000), "12.0s");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(64 * 1024), "64.0KiB");
        assert_eq!(fmt_bytes(128 * 1024 * 1024), "128.0MiB");
    }
}
