//! Causal profiling: turn a raw event log into an explanation.
//!
//! [`analyze`] runs the exact wall-time partition ([`attribution`])
//! and ranks the flow-control slots that stalled the run, producing a
//! [`CausalReport`] that renders as text tables. Neither reads a
//! per-bin id: lanes come from task start/end pairs, stall edges from
//! `FlowControlStall` / `Resume`, and in-flight bins from a count of
//! `BinShipped` against `BinIngress`. Record lineage is the statistics
//! plane's sampled key path ([`crate::stats`]), which `hamr explain`
//! reads.

pub mod attribution;

pub use attribution::{Buckets, NodeBuckets, StallEdge};

use crate::{fmt_us, TraceEvent};

/// The full causal-profiling report for one job run.
#[derive(Debug, Clone, Default)]
pub struct CausalReport {
    /// Event-log window (first / last event timestamp, microseconds).
    pub t0_us: u64,
    pub t1_us: u64,
    /// `t1 - t0`.
    pub wall_us: u64,
    /// Worker lanes observed across the cluster.
    pub lanes: u32,
    /// Lane-summed buckets over all nodes;
    /// `total.total() == lanes × wall_us` exactly.
    pub total: Buckets,
    pub per_node: Vec<NodeBuckets>,
    /// (edge, dst) flow-control slots ranked by stall count, then by
    /// cumulative stall.
    pub stall_edges: Vec<StallEdge>,
    /// Events the sink dropped — when > 0 the report is built on a
    /// truncated log and every number below is suspect.
    pub dropped_events: u64,
}

impl CausalReport {
    /// Bucket shares of total lane time, in bucket order
    /// (compute, disk, stall, net, idle). Zero when the log is empty.
    pub fn shares(&self) -> [f64; 5] {
        let total = self.total.total();
        if total == 0 {
            return [0.0; 5];
        }
        let t = total as f64;
        [
            self.total.compute_us as f64 / t,
            self.total.disk_us as f64 / t,
            self.total.stall_us as f64 / t,
            self.total.net_us as f64 / t,
            self.total.idle_us as f64 / t,
        ]
    }
}

/// Analyze a timestamp-sorted event log. `dropped_events` comes from
/// the sink (e.g. [`crate::RingSink::dropped`]) and is carried into the
/// report so downstream consumers can see whether the log is complete.
pub fn analyze(events: &[TraceEvent], dropped_events: u64) -> CausalReport {
    let attr = attribution::attribute(events);
    CausalReport {
        t0_us: attr.t0_us,
        t1_us: attr.t1_us,
        wall_us: attr.wall_us,
        lanes: attr.per_node.iter().map(|n| n.lanes).sum(),
        total: attr.total,
        per_node: attr.per_node,
        stall_edges: attr.stall_edges,
        dropped_events,
    }
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".into()
    } else {
        format!("{:.1}%", 100.0 * part as f64 / whole as f64)
    }
}

/// Per-node wall-time attribution table (plus a cluster totals row).
pub fn render_attribution(report: &CausalReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "wall {}  ({} worker lanes; buckets are shares of lane time)\n",
        fmt_us(report.wall_us),
        report.lanes
    ));
    if report.dropped_events > 0 {
        out.push_str(&format!(
            "WARNING: {} events dropped by the trace sink — attribution is \
             built on a truncated log; raise RingSink capacity\n",
            report.dropped_events
        ));
    }
    out.push_str(&format!(
        "{:<8} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "node", "lanes", "compute", "disk", "stall", "net", "idle"
    ));
    let row = |label: String, lanes: u32, b: &Buckets| {
        let t = b.total();
        format!(
            "{:<8} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            label,
            lanes,
            pct(b.compute_us, t),
            pct(b.disk_us, t),
            pct(b.stall_us, t),
            pct(b.net_us, t),
            pct(b.idle_us, t)
        )
    };
    for n in &report.per_node {
        out.push_str(&row(format!("node{}", n.node), n.lanes, &n.buckets));
    }
    out.push_str(&row("TOTAL".into(), report.lanes, &report.total));
    out.push_str(&format!(
        "{:<8} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "(time)",
        "",
        fmt_us(report.total.compute_us),
        fmt_us(report.total.disk_us),
        fmt_us(report.total.stall_us),
        fmt_us(report.total.net_us),
        fmt_us(report.total.idle_us),
    ));
    out
}

/// The top-stall-edges ranking: which flow-control slots serialized
/// the run, with each slot's stall count and mean wait per stall. Not
/// the summed wait: bins deferred together wait concurrently, so the sum
/// can exceed the run's wall.
pub fn render_stall_edges(report: &CausalReport) -> String {
    if report.stall_edges.is_empty() {
        return "no flow-control stalls recorded\n".into();
    }
    let mut out = format!("{:<24} {:>8} {:>10}\n", "stall edge", "stalls", "avg/bin");
    for s in report.stall_edges.iter().take(10) {
        out.push_str(&format!(
            "{:<24} {:>8} {:>10}\n",
            format!("f{} edge{} -> node{}", s.flowlet, s.edge, s.dst),
            s.stalls,
            fmt_us(s.stalled_us / s.stalls.max(1)),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ev;
    use crate::{EventKind, TaskKind};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            ev(
                0,
                0,
                0,
                EventKind::TaskStart {
                    task: TaskKind::MapBin,
                    flowlet: 0,
                },
            ),
            ev(
                40,
                0,
                0,
                EventKind::BinEmitted {
                    flowlet: 0,
                    edge: 0,
                    dst: 1,
                    records: 4,
                },
            ),
            ev(
                40,
                0,
                0,
                EventKind::BinShipped {
                    flowlet: 0,
                    edge: 0,
                    dst: 1,
                    records: 4,
                    bytes: 64,
                },
            ),
            ev(
                50,
                0,
                0,
                EventKind::TaskEnd {
                    task: TaskKind::MapBin,
                    flowlet: 0,
                    records_in: 4,
                    records_out: 4,
                },
            ),
            ev(
                60,
                1,
                0,
                EventKind::BinIngress {
                    flowlet: 1,
                    edge: 0,
                    from: 0,
                },
            ),
            ev(
                70,
                1,
                0,
                EventKind::TaskStart {
                    task: TaskKind::ReduceIngest,
                    flowlet: 1,
                },
            ),
            ev(
                100,
                1,
                0,
                EventKind::TaskEnd {
                    task: TaskKind::ReduceIngest,
                    flowlet: 1,
                    records_in: 4,
                    records_out: 0,
                },
            ),
        ]
    }

    #[test]
    fn buckets_partition_lane_time_exactly() {
        let report = analyze(&sample_events(), 0);
        assert_eq!(report.wall_us, 100);
        assert_eq!(report.lanes, 2);
        assert_eq!(
            report.total.total(),
            report.lanes as u64 * report.wall_us,
            "exact conservation"
        );
        // Node 0's lane: 50us compute + 50us idle.
        let n0 = &report.per_node[0].buckets;
        assert_eq!(n0.compute_us, 50);
        // Node 1's lane: 30us compute, 20us net (ship 40 → ingress 60),
        // the rest idle.
        let n1 = &report.per_node[1].buckets;
        assert_eq!(n1.compute_us, 30);
        assert_eq!(n1.net_us, 20);
    }

    #[test]
    fn renders_do_not_panic_and_warn_on_drops() {
        let report = analyze(&sample_events(), 7);
        let table = render_attribution(&report);
        assert!(table.contains("WARNING: 7 events dropped"));
        assert!(render_stall_edges(&report).contains("no flow-control stalls"));
    }

    #[test]
    fn empty_log_is_harmless() {
        let report = analyze(&[], 0);
        assert_eq!(report.wall_us, 0);
        assert_eq!(report.shares(), [0.0; 5]);
        let _ = render_attribution(&report);
    }
}
