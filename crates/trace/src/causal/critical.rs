//! Critical-path extraction over the span graph.
//!
//! Starting from the last task to finish, walk producer links
//! backwards: a task that consumed bin `s` causally waited on the
//! `BinEmitted` for `s`, which happened inside some producer task on
//! another (or the same) node. Each hop contributes segments to the
//! path, bucketed the same way as the attribution sweep:
//!
//! ```text
//! consumer: [start ........ end]          → compute
//!   queue:  [ingress .. start]            → queue (delivered, waiting
//!                                            for a worker)
//!   net:    [shipped .. ingress]          → net
//!   stall:  [emitted .. shipped]          → stall if flow control
//!                                            deferred the bin, else
//!                                            queue (outbuf wait)
//! producer: [start .. emitted]            → compute … and recurse
//! ```
//!
//! Tasks with no consumed span (reduce fires, loader splits) fall back
//! to the latest earlier task end on the same (node, flowlet) — the
//! ingest that armed the fire — or, failing that, the latest earlier
//! task end anywhere (phase barriers in the MapReduce baseline).

use super::lineage::{start_of, Lineage};

/// The job's critical path, bucketed by segment kind (microseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct CriticalPath {
    /// Sum of all segments — the modeled lower bound on wall time.
    pub total_us: u64,
    pub compute_us: u64,
    pub net_us: u64,
    /// Flow-control deferral on the path.
    pub stall_us: u64,
    /// Delivered-but-not-yet-running (scheduler queue) plus
    /// producer-side waits not recorded as flow-control stalls.
    pub queue_us: u64,
    /// Producer→consumer hops walked.
    pub hops: u32,
}

pub(super) fn critical_path(lineage: &Lineage) -> CriticalPath {
    let mut cp = CriticalPath::default();
    let Some(last) = lineage
        .tasks
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| t.end_us)
        .map(|(i, _)| i)
    else {
        return cp;
    };

    let mut visited = std::collections::HashSet::new();
    let mut cur = last;
    // The instant up to which the current task's compute counts: the
    // full task for the path head, the emit instant for producers.
    let mut horizon = lineage.tasks[last].end_us;
    while visited.insert(cur) && cp.hops < 100_000 {
        let task = &lineage.tasks[cur];
        let start = start_of(task).min(horizon);
        cp.compute_us += horizon - start;

        let consumed = (task.span != 0)
            .then(|| lineage.spans.get(&task.span))
            .flatten();
        if let Some(rec) = consumed {
            if let Some((emit_t, node, lane)) = rec.emitted {
                let ship_t = rec.shipped.map(|(t, _)| t).unwrap_or(emit_t);
                let in_t = rec.ingress.map(|(t, _)| t).unwrap_or(ship_t);
                cp.queue_us += start.saturating_sub(in_t.min(start));
                let net = in_t.min(start).saturating_sub(ship_t.min(start));
                cp.net_us += net;
                let pre_ship = ship_t.min(start).saturating_sub(emit_t.min(start));
                if rec.stall_at.is_some() {
                    cp.stall_us += pre_ship;
                } else {
                    cp.queue_us += pre_ship;
                }
                if let Some(producer) = lineage.task_at(node, lane, emit_t) {
                    cp.hops += 1;
                    horizon = emit_t.min(start);
                    cur = producer;
                    continue;
                }
                // Producer task unknown (e.g. emitted from the runtime
                // lane at flush): stop here.
                break;
            }
            break;
        }
        // No consumed bin: find the task that armed this one.
        let same_flowlet = lineage
            .tasks
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                *i != cur && t.node == task.node && t.flowlet == task.flowlet && t.end_us <= start
            })
            .max_by_key(|(_, t)| t.end_us)
            .map(|(i, _)| i);
        let pred = same_flowlet.or_else(|| {
            lineage
                .tasks
                .iter()
                .enumerate()
                .filter(|(i, t)| *i != cur && t.end_us <= start && !visited.contains(i))
                .max_by_key(|(_, t)| t.end_us)
                .map(|(i, _)| i)
        });
        match pred {
            Some(p) => {
                let p_end = lineage.tasks[p].end_us.min(start);
                cp.queue_us += start - p_end;
                cp.hops += 1;
                horizon = p_end;
                cur = p;
            }
            None => break,
        }
    }
    cp.total_us = cp.compute_us + cp.net_us + cp.stall_us + cp.queue_us;
    cp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ev;
    use crate::{EventKind, TaskKind};

    #[test]
    fn two_hop_path_buckets_segments() {
        // Producer computes 0..10 (emits at 8), bin stalls 8..14, ships
        // at 14, arrives 20, consumer runs 26..30.
        let events = vec![
            ev(
                0,
                0,
                0,
                EventKind::TaskStart {
                    task: TaskKind::MapBin,
                    flowlet: 0,
                    span: 0,
                },
            ),
            ev(
                8,
                0,
                0,
                EventKind::BinEmitted {
                    flowlet: 0,
                    edge: 0,
                    dst: 1,
                    span: 7,
                    records: 1,
                },
            ),
            ev(
                8,
                0,
                0,
                EventKind::FlowControlStall {
                    flowlet: 0,
                    edge: 0,
                    dst: 1,
                    span: 7,
                },
            ),
            ev(
                10,
                0,
                0,
                EventKind::TaskEnd {
                    task: TaskKind::MapBin,
                    flowlet: 0,
                    records_in: 1,
                    records_out: 1,
                },
            ),
            ev(
                14,
                0,
                0,
                EventKind::BinShipped {
                    flowlet: 0,
                    edge: 0,
                    dst: 1,
                    records: 1,
                    bytes: 10,
                    span: 7,
                },
            ),
            ev(
                20,
                1,
                0,
                EventKind::BinIngress {
                    flowlet: 1,
                    edge: 0,
                    from: 0,
                    span: 7,
                },
            ),
            ev(
                26,
                1,
                0,
                EventKind::TaskStart {
                    task: TaskKind::ReduceIngest,
                    flowlet: 1,
                    span: 7,
                },
            ),
            ev(
                30,
                1,
                0,
                EventKind::TaskEnd {
                    task: TaskKind::ReduceIngest,
                    flowlet: 1,
                    records_in: 1,
                    records_out: 0,
                },
            ),
        ];
        let lineage = Lineage::build(&events);
        let cp = critical_path(&lineage);
        assert_eq!(cp.hops, 1);
        assert_eq!(cp.compute_us, 4 + 8, "consumer 26..30 + producer 0..8");
        assert_eq!(cp.queue_us, 6, "ingress 20 → start 26");
        assert_eq!(cp.net_us, 6, "ship 14 → ingress 20");
        assert_eq!(cp.stall_us, 6, "emit 8 → ship 14, stalled");
        assert_eq!(cp.total_us, 30);
    }
}
