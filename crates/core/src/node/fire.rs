//! What happens when a phase ends: a reduce or partial reduce fires, an
//! epoch's window flushes, the combine buffers drain, and completion is
//! signalled downstream.

use super::exec::Task;
use super::phase::Phase;
use super::{NetMsg, NodeRuntime};
use crate::config::FaultInjection;
use crate::error::RunError;
use crate::flowlet::AccTable;
use crate::graph::{EdgeId, FlowletId};
use hamr_trace::{EventKind, WORKER_RUNTIME};
use std::sync::Arc;

impl NodeRuntime {
    /// Flush a partial reduce's window at an epoch boundary, or simply
    /// forward the marker for stateless flowlets.
    pub(super) fn begin_epoch_flush(&mut self, f: FlowletId, epoch: u64) {
        match &self.shared.partial[f] {
            Some(state) => {
                let tasks = self.finish_tasks(f, state.drain());
                self.begin_fire(f, tasks, Phase::FlushingEpoch(epoch));
            }
            None => {
                // Map (and anything stateless): bins already processed,
                // forward punctuation downstream.
                self.send_markers(f, epoch);
            }
        }
    }

    pub(super) fn finish_epoch_flush(&mut self, f: FlowletId, epoch: u64) {
        self.send_markers(f, epoch);
        self.set_phase(f, Phase::Active);
    }

    pub(super) fn send_markers(&self, f: FlowletId, epoch: u64) {
        self.signal_out_edges(f, |edge| NetMsg::Marker { edge, epoch });
    }

    /// Send `msg` on each out-edge of `f` to the edge's peers: the
    /// nodes that expect to hear from this one on it.
    fn signal_out_edges(&self, f: FlowletId, msg: impl Fn(EdgeId) -> NetMsg) {
        let graph = &self.plan.graph;
        for &edge in &graph.flowlets[f].out_edges {
            for dst in graph.edges[edge].exchange.peers(self.node, self.nodes) {
                let _ = self.endpoint.send(dst, msg(edge));
            }
        }
    }

    /// Dispatch a fire's `tasks` and enter `phase`, which ends when the
    /// last of them has ended and shipped — at once, for a fire of
    /// nothing.
    fn begin_fire(&mut self, f: FlowletId, tasks: Vec<Task>, phase: Phase) {
        let n = tasks.len();
        self.dispatch_batch(tasks);
        self.set_phase(f, phase);
        self.instances[f].fire_left = n;
        if n == 0 {
            self.check_transition(f);
        }
    }

    /// Deal drained stripe tables round-robin into parallel finish
    /// tasks, at most one per worker.
    fn finish_tasks(&self, f: FlowletId, tables: Vec<AccTable>) -> Vec<Task> {
        let mut dealt: Vec<Vec<AccTable>> = Vec::new();
        dealt.resize_with(self.threads.min(tables.len()), Vec::new);
        let n = dealt.len();
        for (i, table) in tables.into_iter().enumerate() {
            dealt[i % n].push(table);
        }
        let finish = |tables| Task::FirePartial { flowlet: f, tables };
        dealt.into_iter().map(finish).collect()
    }

    pub(super) fn fire_reduce(&mut self, f: FlowletId) {
        // Take exclusive ownership of the collected state; every ingest
        // task has finished (running == 0), so ours is the last Arc.
        let state_arc = self.shared.reduce[f]
            .lock()
            .take()
            .expect("reduce state present at fire");
        let state = Arc::try_unwrap(state_arc)
            .unwrap_or_else(|_| panic!("reduce state still shared at fire"));
        self.fmetrics[f].spilled_bytes += state.spilled_bytes();
        match state.into_shards() {
            Ok(shards) => {
                // Empty shards would only inflate task/steal counts;
                // skip them before dispatch.
                let tasks: Vec<Task> = shards
                    .into_iter()
                    .filter(|s| !s.is_empty())
                    .map(|shard| Task::FireReduce { flowlet: f, shard })
                    .collect();
                let n = tasks.len();
                self.shared.obs.tracer.emit(
                    self.node as u32,
                    WORKER_RUNTIME,
                    EventKind::ReduceFire {
                        flowlet: f as u32,
                        shards: n as u32,
                    },
                );
                self.begin_fire(f, tasks, Phase::Firing);
            }
            Err(e) => self.abort(RunError::Disk(e)),
        }
    }

    pub(super) fn fire_partial(&mut self, f: FlowletId) {
        let tables = self.shared.partial[f].as_ref().expect("state").drain();
        let tasks = self.finish_tasks(f, tables);
        self.begin_fire(f, tasks, Phase::Firing);
    }

    /// `f` has run its last producing task and shipped its bins. What
    /// its workers' combine buffers still hold must leave before the
    /// completion broadcast: one flush task drains them all (no other
    /// task of `f` runs, so every buffer is on the shelf), and the
    /// flowlet completes when that task's bins are in their links'
    /// FIFOs — `EdgeComplete` stays behind every held record by the
    /// same ordering as behind any bin.
    pub(super) fn finish_producing(&mut self, f: FlowletId) {
        if self.held_partials(f) == 0 {
            return self.begin_complete(f);
        }
        self.set_phase(f, Phase::FlushingCombine);
        self.instances[f].fire_left = 1;
        self.dispatch(Task::FlushCombine { flowlet: f });
    }

    /// Signal completion on every out-edge and retire the flowlet.
    pub(super) fn begin_complete(&mut self, f: FlowletId) {
        debug_assert_eq!(
            self.held_partials(f),
            0,
            "flowlet {f} completes over undrained combine buffers"
        );
        // Fault injection: swallow the completion broadcast so every
        // downstream consumer waits forever on this node's EdgeComplete
        // — a pure hang with all workers idle.
        let swallow = matches!(self.cfg.fault, FaultInjection::SwallowEdgeComplete { node } if node == self.node);
        if !swallow {
            self.signal_out_edges(f, |edge| NetMsg::EdgeComplete { edge });
        }
        self.set_phase(f, Phase::Complete);
    }
}
