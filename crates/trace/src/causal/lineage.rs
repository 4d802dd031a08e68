//! Reconstruct per-bin lineage chains and per-lane task spans from a
//! raw event log.
//!
//! Every bin minted under tracing carries a unique span id through
//! `BinEmitted → (FlowControlStall → FlowControlResume)? → BinShipped →
//! BinIngress → TaskStart`, so one pass over the sorted event log
//! recovers, for each bin, where it was produced, how long flow control
//! held it, when the fabric delivered it, and which task consumed it.

use crate::{task_spans, EventKind, TaskSpan, TraceEvent, WORKER_DISK};
use std::collections::HashMap;

/// When a kept task started: [`Lineage::tasks`] holds only spans whose
/// start was seen.
pub(super) fn start_of(task: &TaskSpan) -> u64 {
    task.start_us.unwrap_or(task.end_us)
}

/// Everything known about one bin's journey.
#[derive(Debug, Clone, Default)]
pub struct SpanRecord {
    pub span: u64,
    pub flowlet: u32,
    pub edge: u32,
    pub dst: u32,
    pub records: u32,
    /// (t, node, lane) of the producing `BinEmitted`.
    pub emitted: Option<(u64, u32, u32)>,
    /// `FlowControlStall` timestamp, if the bin was deferred.
    pub stall_at: Option<u64>,
    /// `stalled_us` from the matching `FlowControlResume`.
    pub stalled_us: Option<u64>,
    /// (t, bytes) of `BinShipped`.
    pub shipped: Option<(u64, u64)>,
    /// (t, node) of `BinIngress` at the receiver.
    pub ingress: Option<(u64, u32)>,
    /// Index into [`Lineage::tasks`] of the consuming task.
    pub consumed_by: Option<usize>,
}

impl SpanRecord {
    /// A chain that went all the way from producer to consumer.
    pub fn is_complete(&self) -> bool {
        self.emitted.is_some() && self.consumed_by.is_some()
    }
}

/// The reconstructed span graph.
#[derive(Debug, Default)]
pub struct Lineage {
    pub spans: HashMap<u64, SpanRecord>,
    /// Every task span on a worker lane whose start was seen, in
    /// event order.
    pub tasks: Vec<TaskSpan>,
    /// Task indices per (node, lane), sorted by start time.
    pub lanes: HashMap<(u32, u32), Vec<usize>>,
}

impl Lineage {
    /// Build from a timestamp-sorted event log.
    pub fn build(events: &[TraceEvent]) -> Lineage {
        let mut lineage = Lineage::default();
        // Task pairing is `task_spans`' rule; what is kept here is
        // every pair on a worker lane whose start was seen.
        for t in task_spans(events) {
            if t.start_us.is_none() || t.worker >= WORKER_DISK {
                continue;
            }
            if t.span != 0 {
                lineage.span_mut(t.span).consumed_by = Some(lineage.tasks.len());
            }
            lineage.tasks.push(t);
        }
        for ev in events {
            match ev.kind {
                EventKind::BinEmitted {
                    flowlet,
                    edge,
                    dst,
                    span,
                    records,
                } => {
                    let rec = lineage.span_mut(span);
                    rec.flowlet = flowlet;
                    rec.edge = edge;
                    rec.dst = dst;
                    rec.records = records;
                    rec.emitted = Some((ev.t_us, ev.node, ev.worker));
                }
                EventKind::BinShipped { span, bytes, .. } if span != 0 => {
                    lineage.span_mut(span).shipped = Some((ev.t_us, bytes));
                }
                EventKind::BinIngress { span, .. } if span != 0 => {
                    lineage.span_mut(span).ingress = Some((ev.t_us, ev.node));
                }
                EventKind::FlowControlStall { span, .. } if span != 0 => {
                    lineage.span_mut(span).stall_at = Some(ev.t_us);
                }
                EventKind::FlowControlResume {
                    span, stalled_us, ..
                } if span != 0 => {
                    lineage.span_mut(span).stalled_us = Some(stalled_us);
                }
                _ => {}
            }
        }
        for (idx, task) in lineage.tasks.iter().enumerate() {
            lineage
                .lanes
                .entry((task.node, task.worker))
                .or_default()
                .push(idx);
        }
        for indices in lineage.lanes.values_mut() {
            indices.sort_by_key(|&i| start_of(&lineage.tasks[i]));
        }
        lineage
    }

    fn span_mut(&mut self, span: u64) -> &mut SpanRecord {
        self.spans.entry(span).or_insert_with(|| SpanRecord {
            span,
            ..SpanRecord::default()
        })
    }

    /// The task on `(node, lane)` whose span contains instant `t`.
    pub fn task_at(&self, node: u32, lane: u32, t: u64) -> Option<usize> {
        let indices = self.lanes.get(&(node, lane))?;
        // Last task starting at or before `t` that is still open at `t`.
        let mut best = None;
        for &i in indices {
            let task = &self.tasks[i];
            if start_of(task) <= t && t <= task.end_us {
                best = Some(i);
            } else if start_of(task) > t {
                break;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ev;
    use crate::TaskKind;

    #[test]
    fn reconstructs_full_chain() {
        let events = vec![
            ev(
                0,
                0,
                1,
                EventKind::TaskStart {
                    task: TaskKind::MapBin,
                    flowlet: 1,
                    span: 0,
                },
            ),
            ev(
                5,
                0,
                1,
                EventKind::BinEmitted {
                    flowlet: 1,
                    edge: 2,
                    dst: 3,
                    span: 42,
                    records: 100,
                },
            ),
            ev(
                6,
                0,
                1,
                EventKind::FlowControlStall {
                    flowlet: 1,
                    edge: 2,
                    dst: 3,
                    span: 42,
                },
            ),
            ev(
                9,
                0,
                1,
                EventKind::FlowControlResume {
                    flowlet: 1,
                    edge: 2,
                    dst: 3,
                    stalled_us: 3,
                    span: 42,
                },
            ),
            ev(
                9,
                0,
                1,
                EventKind::BinShipped {
                    flowlet: 1,
                    edge: 2,
                    dst: 3,
                    records: 100,
                    bytes: 800,
                    span: 42,
                },
            ),
            ev(
                10,
                0,
                1,
                EventKind::TaskEnd {
                    task: TaskKind::MapBin,
                    flowlet: 1,
                    records_in: 100,
                    records_out: 100,
                },
            ),
            ev(
                14,
                3,
                0,
                EventKind::BinIngress {
                    flowlet: 2,
                    edge: 2,
                    from: 0,
                    span: 42,
                },
            ),
            ev(
                20,
                3,
                0,
                EventKind::TaskStart {
                    task: TaskKind::ReduceIngest,
                    flowlet: 2,
                    span: 42,
                },
            ),
            ev(
                25,
                3,
                0,
                EventKind::TaskEnd {
                    task: TaskKind::ReduceIngest,
                    flowlet: 2,
                    records_in: 100,
                    records_out: 0,
                },
            ),
        ];
        let lineage = Lineage::build(&events);
        assert_eq!(lineage.tasks.len(), 2);
        let rec = &lineage.spans[&42];
        assert!(rec.is_complete());
        assert_eq!(rec.emitted, Some((5, 0, 1)));
        assert_eq!(rec.stall_at, Some(6));
        assert_eq!(rec.stalled_us, Some(3));
        assert_eq!(rec.shipped, Some((9, 800)));
        assert_eq!(rec.ingress, Some((14, 3)));
        let consumer = &lineage.tasks[rec.consumed_by.unwrap()];
        assert_eq!(consumer.task, TaskKind::ReduceIngest);
        assert_eq!(consumer.node, 3);
        // The producer task contains the emit instant.
        let producer = lineage.task_at(0, 1, 5).unwrap();
        assert_eq!(lineage.tasks[producer].task, TaskKind::MapBin);
    }
}
