//! Admission: what has arrived for each flowlet instance, and the
//! pumps that turn it into tasks — loader splits whose input has
//! arrived, stream epochs, input bins — under the flow-control rules.

use super::exec::Task;
use super::phase::Phase;
use super::NodeRuntime;
use crate::flowlet::Loader;
use crate::graph::{FlowletId, FlowletKind};
use crate::outbuf::{record_emitted, record_shipped};
use crate::record::FrameBin;
use crate::NodeId;
use hamr_trace::{AuditStage, EventKind, WORKER_RUNTIME};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Work delivered to a flowlet instance, kept in arrival order so
/// completion/epoch sentinels stay behind the bins they cover.
pub(super) enum Work {
    Bin {
        from: NodeId,
        /// True when no acknowledgement is owed: the bin took no
        /// flow-control window slot (a served resident frame).
        acked: bool,
        bin: FrameBin,
    },
    Complete,
    Marker {
        epoch: u64,
    },
}

/// Per-flowlet scheduling state on this node.
pub(super) struct Instance {
    pub(super) pending: VecDeque<Work>,
    pub(super) complete_seen: usize,
    pub(super) input_expected: usize,
    pub(super) markers: HashMap<u64, usize>,
    pub(super) running: usize,
    pub(super) phase: Phase,
    // loader
    pub(super) splits_total: usize,
    pub(super) splits_next: usize,
    /// Splits whose `Loader::prepare` has been called: the dispatched
    /// ones, the next to fire and the one after it.
    pub(super) splits_prepared: usize,
    /// What `prepare` answered for each prepared split not yet
    /// dispatched, split `splits_next` first: when its input will have
    /// arrived (`None` = it is there).
    pub(super) splits_ready: VecDeque<Option<Instant>>,
    pub(super) splits_done: usize,
    pub(super) loader_running: usize,
    // stream
    pub(super) stream_epoch: u64,
    pub(super) stream_task_out: bool,
    pub(super) marker_owed: Option<u64>,
    pub(super) stream_finished: bool,
    pub(super) fire_left: usize,
}

impl Instance {
    pub(super) fn input_done(&self) -> bool {
        self.complete_seen == self.input_expected
    }
}

/// Max concurrent loader split tasks per node (the paper throttles
/// loader concurrency as part of flow control).
const LOADER_CONCURRENCY: usize = 2;

/// Max deferred (backpressured) bins per node before loaders stop
/// admitting new splits.
const DEFER_HIGH_WATER: usize = 64;

impl NodeRuntime {
    /// Inject every served flowlet's cached frames into the local
    /// consumer queues, with full custody: a resident hit is a local
    /// delivery, so Emit, Ship, and Deliver are recorded here at this
    /// node — in the ledger and in the trace —
    /// (the consuming task records Consume as usual) and the
    /// conservation check emit == ship == deliver == consume still
    /// balances. No fabric send happens, so `shuffled_bytes` (remote
    /// fabric traffic) drops to zero for these edges.
    pub(super) fn inject_served(&mut self) {
        let plan = Arc::clone(&self.plan);
        let (obs, node) = (self.shared.obs.clone(), self.node);
        for (f, fp) in plan.flowlets.iter().enumerate() {
            let Some(hit) = &fp.serve else { continue };
            for (port, spec) in fp.ports.iter().enumerate() {
                for frame in &hit.ports[port][node] {
                    let bin = FrameBin::new(spec.edge, frame.clone());
                    record_emitted(&obs, node, WORKER_RUNTIME, f, node, &bin);
                    record_shipped(&obs, node, WORKER_RUNTIME, f, node, &bin);
                    bin.audit(&obs.audit, AuditStage::Deliver, node);
                    // Pre-acked: nothing was shipped, so there is no
                    // flow-control window slot to release.
                    self.enqueue_bin(node, true, bin);
                }
            }
        }
    }

    /// Queue an arrived bin for its destination flowlet: the one
    /// ingress path, whether the fabric delivered it or the resident
    /// store served it. `acked` as on [`Work::Bin`].
    pub(super) fn enqueue_bin(&mut self, from: NodeId, acked: bool, bin: FrameBin) {
        let dst = self.plan.graph.edges[bin.edge].dst;
        self.nmetrics.bins_in += 1;
        self.nmetrics.records_in += bin.len() as u64;
        self.shared.obs.tracer.emit(
            self.node as u32,
            WORKER_RUNTIME,
            EventKind::BinIngress {
                flowlet: dst as u32,
                edge: bin.edge as u32,
                from: from as u32,
            },
        );
        self.queue_gauges[dst].add(1);
        self.pending_bytes_gauge.add(bin.payload_bytes() as i64);
        self.instances[dst]
            .pending
            .push_back(Work::Bin { from, acked, bin });
    }

    pub(super) fn pump(&mut self) {
        self.wake_at = None;
        // Walk flowlets in topological order so upstream work is
        // admitted first within one pass.
        for i in 0..self.plan.graph.topo.len() {
            let f = self.plan.graph.topo[i];
            if self.instances[f].phase == Phase::Complete {
                continue;
            }
            let graph = Arc::clone(&self.plan.graph);
            match &graph.flowlets[f].kind {
                FlowletKind::Loader(l) => self.pump_loader(f, l.as_ref()),
                FlowletKind::Stream(_) => self.pump_stream(f),
                _ => self.pump_inner(f),
            }
            self.check_transition(f);
        }
        self.awaiting_read_gauge.set(self.wake_at.is_some() as i64);
    }

    fn pump_loader(&mut self, f: FlowletId, loader: &dyn Loader) {
        loop {
            let inst = &self.instances[f];
            if inst.phase != Phase::Active
                || inst.splits_next >= inst.splits_total
                || inst.loader_running >= LOADER_CONCURRENCY
                || self.shared.flow.deferred_for(f) > 0
                || self.shared.flow.total_deferred() >= DEFER_HIGH_WATER
                || !self.has_capacity()
            {
                return;
            }
            // A split's device read is submitted when the split could
            // be admitted — and the next split's with it, so the device
            // always has its next read queued. Admission bounds it: at
            // most LOADER_CONCURRENCY + 1 splits are prepared and not
            // done.
            let inst = &mut self.instances[f];
            let index = inst.splits_next;
            for ahead in inst.splits_prepared..(index + 2).min(inst.splits_total) {
                let ready_at = loader.prepare(&self.shared.ctx, ahead);
                inst.splits_ready.push_back(ready_at);
                inst.splits_prepared = ahead + 1;
            }
            // The split fires when its input has arrived, not before: a
            // worker that took it now would sleep on the device while
            // the bins of earlier splits queue behind it.
            if let Some(&Some(at)) = inst.splits_ready.front() {
                if at > Instant::now() {
                    self.wake_at = Some(self.wake_at.map_or(at, |w| w.min(at)));
                    return;
                }
            }
            inst.splits_ready.pop_front();
            inst.splits_next += 1;
            inst.loader_running += 1;
            self.dispatch(Task::LoaderSplit { flowlet: f, index });
        }
    }

    fn pump_stream(&mut self, f: FlowletId) {
        // An owed marker goes out once the epoch's bins have all shipped.
        let owed = {
            let inst = &self.instances[f];
            match inst.marker_owed {
                Some(epoch) if inst.running == 0 && self.shared.flow.deferred_for(f) == 0 => {
                    Some(epoch)
                }
                Some(_) => return, // still flushing the epoch
                None => None,
            }
        };
        if let Some(epoch) = owed {
            self.send_markers(f, epoch);
            let inst = &mut self.instances[f];
            inst.marker_owed = None;
            inst.stream_epoch = epoch + 1;
        }
        let can_start = {
            let inst = &self.instances[f];
            inst.phase == Phase::Active
                && !inst.stream_finished
                && !inst.stream_task_out
                && self.shared.flow.deferred_for(f) == 0
                && self.has_capacity()
        };
        if can_start {
            let epoch = self.instances[f].stream_epoch;
            self.instances[f].stream_task_out = true;
            self.dispatch(Task::StreamEpoch { flowlet: f, epoch });
        }
    }

    fn pump_inner(&mut self, f: FlowletId) {
        if self.instances[f].phase != Phase::Active {
            return;
        }
        loop {
            let inst = &self.instances[f];
            let deferred = self.shared.flow.deferred_for(f) > 0;
            let Some(front) = inst.pending.front() else {
                break;
            };
            let admit = match front {
                Work::Complete => true,
                // Not while suspended by flow control, or the pool is
                // full.
                Work::Bin { .. } => !deferred && self.has_capacity(),
                // Epoch boundary: every earlier bin must be fully
                // processed and shipped before it can act.
                Work::Marker { .. } => inst.running == 0 && !deferred,
            };
            if !admit {
                break;
            }
            let inst = &mut self.instances[f];
            match inst.pending.pop_front().expect("front is there") {
                Work::Complete => inst.complete_seen += 1,
                Work::Bin { from, acked, bin } => {
                    self.queue_gauges[f].sub(1);
                    self.pending_bytes_gauge.sub(bin.payload_bytes() as i64);
                    let ack = if acked { None } else { Some((from, bin.edge)) };
                    self.dispatch(Task::Bin {
                        flowlet: f,
                        ack,
                        bin,
                    });
                }
                Work::Marker { epoch } => {
                    let seen = inst.markers.entry(epoch).or_insert(0);
                    *seen += 1;
                    if *seen == inst.input_expected {
                        inst.markers.remove(&epoch);
                        self.begin_epoch_flush(f, epoch);
                        break;
                    }
                }
            }
        }
    }
}
