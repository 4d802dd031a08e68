//! Wall-time attribution: partition every worker lane's wall time into
//! compute / disk / flow-control-stall / network-wait / idle.
//!
//! The partition is exact *by construction*: each lane's `[t0, t1]`
//! window is swept segment-by-segment and every segment is assigned to
//! exactly one bucket by priority:
//!
//! 1. **disk** — the lane is inside a spill (`SpillStart`/`SpillEnd`);
//! 2. **compute** — the lane is inside a task span;
//! 3. **stall** — the lane is free but its node has deferred bins
//!    (between a `FlowControlStall` and its `FlowControlResume`), i.e.
//!    work exists that flow control will not let ship;
//! 4. **net** — the lane is free but bins destined for this node are in
//!    flight: more `BinShipped{dst}` than `BinIngress` at `dst` so far.
//!    The two are paired by count, not by bin — every traced bin that
//!    leaves a node is one of each;
//! 5. **idle** — nothing to do (includes parked time).
//!
//! So `compute + disk + stall + net + idle == lanes × wall` exactly,
//! which is what the conservation test asserts.

use crate::chrome::task_spans;
use crate::{EventKind, TraceEvent, WORKER_DISK};
use std::collections::HashMap;

/// One wall-time partition (all values in microseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Buckets {
    pub compute_us: u64,
    pub disk_us: u64,
    pub stall_us: u64,
    pub net_us: u64,
    pub idle_us: u64,
}

impl Buckets {
    pub fn total(&self) -> u64 {
        self.compute_us + self.disk_us + self.stall_us + self.net_us + self.idle_us
    }

    pub fn add(&mut self, other: &Buckets) {
        self.compute_us += other.compute_us;
        self.disk_us += other.disk_us;
        self.stall_us += other.stall_us;
        self.net_us += other.net_us;
        self.idle_us += other.idle_us;
    }
}

/// Wall-time partition for all worker lanes of one node.
#[derive(Debug, Clone, Copy)]
pub struct NodeBuckets {
    pub node: u32,
    /// Worker lanes observed on this node.
    pub lanes: u32,
    /// Lane-summed buckets: `buckets.total() == lanes × wall_us`.
    pub buckets: Buckets,
}

/// Cumulative stall attributed to one (edge, dst) flow-control slot.
#[derive(Debug, Clone, Copy)]
pub struct StallEdge {
    pub flowlet: u32,
    pub edge: u32,
    pub dst: u32,
    pub stalls: u64,
    /// Summed over the slot's stalls, which overlap: bins deferred
    /// together wait together, so it can exceed the run's wall.
    pub stalled_us: u64,
}

/// Interval list helper: merge +1/-1 deltas into intervals where the
/// running count is positive, clipped to `[t0, t1]`.
fn positive_intervals(mut deltas: Vec<(u64, i64)>, t0: u64, t1: u64) -> Vec<(u64, u64)> {
    deltas.sort_by_key(|&(t, d)| (t, -d));
    let mut out: Vec<(u64, u64)> = Vec::new();
    let mut count = 0i64;
    let mut open_at = 0u64;
    for (t, d) in deltas {
        let was = count;
        count += d;
        if was <= 0 && count > 0 {
            open_at = t;
        } else if was > 0 && count <= 0 {
            let (a, b) = (open_at.max(t0), t.min(t1));
            if a < b {
                out.push((a, b));
            }
        }
    }
    if count > 0 {
        let a = open_at.max(t0);
        if a < t1 {
            out.push((a, t1));
        }
    }
    out
}

/// Merge possibly-overlapping sorted-by-start intervals.
fn merge_intervals(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_by_key(|&(a, _)| a);
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (a, b) in v {
        match out.last_mut() {
            Some((_, end)) if a <= *end => *end = (*end).max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Microseconds of `[a, b]` covered by `intervals` (sorted, disjoint).
fn covered(intervals: &[(u64, u64)], a: u64, b: u64) -> u64 {
    let mut total = 0;
    for &(s, e) in intervals {
        if e <= a {
            continue;
        }
        if s >= b {
            break;
        }
        total += e.min(b) - s.max(a);
    }
    total
}

pub(super) struct Attribution {
    pub wall_us: u64,
    pub t0_us: u64,
    pub t1_us: u64,
    pub total: Buckets,
    pub per_node: Vec<NodeBuckets>,
    pub stall_edges: Vec<StallEdge>,
}

pub(super) fn attribute(events: &[TraceEvent]) -> Attribution {
    let t0 = events.first().map(|e| e.t_us).unwrap_or(0);
    let t1 = events.last().map(|e| e.t_us).unwrap_or(0);
    let wall = t1 - t0;

    // Node-level condition intervals.
    let mut stall_deltas: HashMap<u32, Vec<(u64, i64)>> = HashMap::new();
    let mut net_deltas: HashMap<u32, Vec<(u64, i64)>> = HashMap::new();
    // Per-lane spill intervals (open SpillStart per (node, lane, flowlet)).
    let mut open_spill: HashMap<(u32, u32, u32), u64> = HashMap::new();
    let mut spills: HashMap<(u32, u32), Vec<(u64, u64)>> = HashMap::new();
    let mut stall_edges: HashMap<(u32, u32, u32), (u64, u64)> = HashMap::new();
    for ev in events {
        match ev.kind {
            EventKind::FlowControlStall { .. } => {
                stall_deltas.entry(ev.node).or_default().push((ev.t_us, 1));
            }
            EventKind::FlowControlResume {
                flowlet,
                edge,
                dst,
                stalled_us,
                ..
            } => {
                stall_deltas.entry(ev.node).or_default().push((ev.t_us, -1));
                let slot = stall_edges.entry((flowlet, edge, dst)).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += stalled_us;
            }
            EventKind::BinShipped { dst, .. } => {
                net_deltas.entry(dst).or_default().push((ev.t_us, 1));
            }
            EventKind::BinIngress { .. } => {
                net_deltas.entry(ev.node).or_default().push((ev.t_us, -1));
            }
            EventKind::SpillStart { flowlet } if ev.worker < WORKER_DISK => {
                open_spill.insert((ev.node, ev.worker, flowlet), ev.t_us);
            }
            EventKind::SpillEnd { flowlet, .. } if ev.worker < WORKER_DISK => {
                if let Some(start) = open_spill.remove(&(ev.node, ev.worker, flowlet)) {
                    spills
                        .entry((ev.node, ev.worker))
                        .or_default()
                        .push((start, ev.t_us));
                }
            }
            _ => {}
        }
    }
    let stall_iv: HashMap<u32, Vec<(u64, u64)>> = stall_deltas
        .into_iter()
        .map(|(n, d)| (n, positive_intervals(d, t0, t1)))
        .collect();
    let net_iv: HashMap<u32, Vec<(u64, u64)>> = net_deltas
        .into_iter()
        .map(|(n, d)| (n, positive_intervals(d, t0, t1)))
        .collect();

    // Busy intervals per worker lane: every task whose start was seen.
    let mut lanes: HashMap<(u32, u32), Vec<(u64, u64)>> = HashMap::new();
    for t in task_spans(events) {
        if let Some(start) = t.start_us.filter(|_| t.worker < WORKER_DISK) {
            lanes
                .entry((t.node, t.worker))
                .or_default()
                .push((start.clamp(t0, t1), t.end_us.clamp(t0, t1)));
        }
    }

    let mut per_node: HashMap<u32, NodeBuckets> = HashMap::new();
    let empty: Vec<(u64, u64)> = Vec::new();

    for ((node, lane), tasks) in lanes {
        let node_stalls = stall_iv.get(&node).unwrap_or(&empty);
        let node_net = net_iv.get(&node).unwrap_or(&empty);
        let spill_iv = merge_intervals(spills.remove(&(node, lane)).unwrap_or_default());
        // Busy = union of task spans on this lane (spans never overlap
        // on one lane except transiently at matching boundaries).
        let busy_iv = merge_intervals(tasks);
        let mut b = Buckets::default();
        // Busy time splits disk-vs-compute by spill coverage.
        for &(a, e) in &busy_iv {
            let disk = covered(&spill_iv, a, e);
            b.disk_us += disk;
            b.compute_us += (e - a) - disk;
        }
        // Free time: walk the gaps around busy intervals.
        let mut cursor = t0;
        let mut gaps: Vec<(u64, u64)> = Vec::new();
        for &(a, e) in &busy_iv {
            if a > cursor {
                gaps.push((cursor, a));
            }
            cursor = cursor.max(e);
        }
        if cursor < t1 {
            gaps.push((cursor, t1));
        }
        for (a, e) in gaps {
            let stall = covered(node_stalls, a, e);
            // Net only counts where not already claimed by stall:
            // sweep sub-segments via boundary merge of both lists.
            let mut cuts: Vec<u64> = vec![a, e];
            for &(s, x) in node_stalls.iter().chain(node_net.iter()) {
                if s > a && s < e {
                    cuts.push(s);
                }
                if x > a && x < e {
                    cuts.push(x);
                }
            }
            cuts.sort_unstable();
            cuts.dedup();
            let mut net = 0;
            for w in cuts.windows(2) {
                let (sa, se) = (w[0], w[1]);
                let in_stall = covered(node_stalls, sa, se) > 0;
                let in_net = covered(node_net, sa, se) > 0;
                if !in_stall && in_net {
                    net += se - sa;
                }
            }
            b.stall_us += stall;
            b.net_us += net;
            b.idle_us += (e - a) - stall - net;
        }
        let entry = per_node.entry(node).or_insert(NodeBuckets {
            node,
            lanes: 0,
            buckets: Buckets::default(),
        });
        entry.lanes += 1;
        entry.buckets.add(&b);
    }

    let mut per_node: Vec<NodeBuckets> = per_node.into_values().collect();
    per_node.sort_by_key(|n| n.node);
    let mut stall_edges: Vec<StallEdge> = stall_edges
        .into_iter()
        .map(|((flowlet, edge, dst), (stalls, stalled_us))| StallEdge {
            flowlet,
            edge,
            dst,
            stalls,
            stalled_us,
        })
        .collect();
    // Count first, then wait: a window that fills often is where a
    // producer outruns its consumer; one parked behind it fills rarely,
    // but each of its stalls lasts as long as the jam ahead of it.
    stall_edges.sort_by_key(|e| std::cmp::Reverse((e.stalls, e.stalled_us)));

    let mut total = Buckets::default();
    for n in &per_node {
        total.add(&n.buckets);
    }
    Attribution {
        wall_us: wall,
        t0_us: t0,
        t1_us: t1,
        total,
        per_node,
        stall_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_interval_merging() {
        let iv = positive_intervals(vec![(5, 1), (7, 1), (9, -1), (12, -1), (20, 1)], 0, 30);
        assert_eq!(iv, vec![(5, 12), (20, 30)]);
    }

    #[test]
    fn coverage_math() {
        let iv = vec![(2, 5), (8, 12)];
        assert_eq!(covered(&iv, 0, 20), 7);
        assert_eq!(covered(&iv, 4, 9), 2);
        assert_eq!(covered(&iv, 5, 8), 0);
    }
}
