//! Outbound flow control (paper §2 last ¶): the sliding window of
//! unacknowledged bins per (edge, destination), and the deferred queue
//! behind it.

use crate::graph::{EdgeId, FlowletId};
use crate::metrics::FlowletMetrics;
use crate::node::NetMsg;
use crate::record::FrameBin;
use crate::NodeId;
use hamr_simnet::Endpoint;
use hamr_trace::{AuditStage, EventKind, Gauge, Labels, Observe};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A bin held back by flow control, with the time it was parked.
struct Deferred {
    flowlet: FlowletId,
    dst: NodeId,
    bin: FrameBin,
    since: Instant,
}

/// Per-flowlet flow-control counters, updated from any thread.
struct FlowletFlow {
    /// Bins currently parked in the deferred queue for this flowlet.
    /// Gates task admission (a suspended producer gets no new bins) and
    /// completion (EdgeComplete/Marker must stay behind every bin).
    deferred: AtomicUsize,
    bins_out: AtomicU64,
    stalls: AtomicU64,
    stall_us: AtomicU64,
}

/// Shared outbound flow control: the per-(edge, destination) sliding
/// window of unacknowledged bins, plus the deferred queue for bins that
/// found their window full.
///
/// Under the work-stealing scheduler this is called directly from
/// worker threads: a worker finishing a task ships its bins (or defers
/// them) itself, and opportunistically drains the deferred queue, so a
/// flow-control resume no longer round-trips the runtime thread. The
/// runtime thread still calls [`FlowControl::on_ack`] from its ingress
/// pump when acknowledgements arrive.
///
/// Two ordering rules keep the completion protocol sound:
/// * after a defer, the caller immediately drains once — this closes
///   the race where an ack drained an *empty* queue between the
///   caller's window check and its push, which would otherwise strand
///   the bin until the next unrelated ack;
/// * a flowlet's `deferred` count is decremented only *after* the
///   fabric send completes, so when the runtime thread observes zero it
///   knows every bin is already in the per-link FIFO ahead of any
///   EdgeComplete/Marker it is about to send.
pub(crate) struct FlowControl {
    nodes: usize,
    node: NodeId,
    pub(super) window: usize,
    endpoint: Endpoint<NetMsg>,
    obs: Observe,
    /// In-flight (unacked) bins per (edge, destination node) slot.
    pub(super) inflight: Vec<AtomicUsize>,
    deferred: Mutex<VecDeque<Deferred>>,
    /// Cached queue length so the hot no-backlog path skips the lock.
    total_deferred: AtomicUsize,
    per_flowlet: Vec<FlowletFlow>,
    /// Gauge: bins parked in the deferred queue.
    deferred_gauge: Gauge,
    /// Gauge: total occupied window slots (unacked bins in flight).
    window_gauge: Gauge,
    /// Gauge: cumulative microseconds bins spent parked behind
    /// full flow-control windows — the live stall-share signal
    /// `hamr top` divides by wall-clock.
    stall_gauge: Gauge,
}

impl FlowControl {
    pub(crate) fn new(
        node: NodeId,
        nodes: usize,
        window: usize,
        edges: usize,
        flowlets: usize,
        endpoint: Endpoint<NetMsg>,
        obs: &Observe,
    ) -> Self {
        let gauge = |name| obs.gauge(name, Labels::new().node(node as u32));
        FlowControl {
            nodes,
            node,
            window,
            endpoint,
            obs: obs.clone(),
            inflight: (0..edges * nodes).map(|_| AtomicUsize::new(0)).collect(),
            deferred: Mutex::new(VecDeque::new()),
            total_deferred: AtomicUsize::new(0),
            per_flowlet: (0..flowlets)
                .map(|_| FlowletFlow {
                    deferred: AtomicUsize::new(0),
                    bins_out: AtomicU64::new(0),
                    stalls: AtomicU64::new(0),
                    stall_us: AtomicU64::new(0),
                })
                .collect(),
            deferred_gauge: gauge("deferred_bins"),
            window_gauge: gauge("window_inflight"),
            stall_gauge: gauge("stall_us_total"),
        }
    }

    /// Claim one window slot for `(edge, dst)` if the window has room.
    pub(super) fn try_reserve(&self, slot: usize) -> bool {
        let a = &self.inflight[slot];
        let mut cur = a.load(Ordering::Relaxed);
        loop {
            if cur >= self.window {
                return false;
            }
            match a.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Send `bin`, whose window slot the caller has reserved: the one
    /// place a bin leaves this node for the fabric. A bin for another
    /// node is coded for the link; a loopback bin crosses none and is
    /// charged nothing, so it goes as it is.
    fn ship(&self, lane: u32, f: FlowletId, dst: NodeId, bin: FrameBin) {
        self.window_gauge.add(1);
        self.per_flowlet[f].bins_out.fetch_add(1, Ordering::Relaxed);
        record_shipped(&self.obs, self.node, lane, f, dst, &bin);
        let msg = if dst == self.node {
            NetMsg::Bin(bin)
        } else {
            NetMsg::Coded(bin.code())
        };
        let _ = self.endpoint.send(dst, msg);
    }

    /// Ship `bin` to `dst` if its window has room, else park it in the
    /// deferred queue (suspending the producing flowlet). `lane` is the
    /// trace lane of the calling thread (worker id, or
    /// [`hamr_trace::WORKER_RUNTIME`]).
    pub(crate) fn ship_or_defer(&self, lane: u32, f: FlowletId, dst: NodeId, bin: FrameBin) {
        let slot = bin.edge * self.nodes + dst;
        if self.try_reserve(slot) {
            return self.ship(lane, f, dst, bin);
        }
        self.per_flowlet[f].stalls.fetch_add(1, Ordering::Relaxed);
        self.per_flowlet[f].deferred.fetch_add(1, Ordering::AcqRel);
        self.deferred_gauge.add(1);
        self.obs.tracer.emit(
            self.node as u32,
            lane,
            EventKind::FlowControlStall {
                flowlet: f as u32,
                edge: bin.edge as u32,
                dst: dst as u32,
            },
        );
        {
            let mut q = self.deferred.lock();
            q.push_back(Deferred {
                flowlet: f,
                dst,
                bin,
                since: Instant::now(),
            });
            self.total_deferred.store(q.len(), Ordering::Release);
        }
        // An ack may have drained an (empty) queue between our window
        // check and the push above; drain once so this bin cannot be
        // stranded waiting for a further ack that never comes.
        self.drain(lane);
    }

    /// An acknowledgement from `from` arrived for `edge`: open the
    /// window by one and try to resume deferred bins.
    pub(crate) fn on_ack(&self, edge: EdgeId, from: NodeId, lane: u32) {
        let slot = edge * self.nodes + from;
        let prev = self.inflight[slot].fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "ack for edge {edge} without an in-flight bin");
        self.window_gauge.sub(1);
        self.drain(lane);
    }

    /// Ship every deferred bin whose window now has room.
    pub(crate) fn drain(&self, lane: u32) {
        if self.total_deferred.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut q = self.deferred.lock();
        let mut i = 0;
        while i < q.len() {
            let slot = q[i].bin.edge * self.nodes + q[i].dst;
            if !self.try_reserve(slot) {
                i += 1;
                continue;
            }
            let d = q.remove(i).expect("index in bounds");
            let flow = &self.per_flowlet[d.flowlet];
            let stalled = d.since.elapsed();
            flow.stall_us
                .fetch_add(stalled.as_micros() as u64, Ordering::Relaxed);
            self.stall_gauge.add(stalled.as_micros() as i64);
            self.deferred_gauge.sub(1);
            self.obs.tracer.emit(
                self.node as u32,
                lane,
                EventKind::FlowControlResume {
                    flowlet: d.flowlet as u32,
                    edge: d.bin.edge as u32,
                    dst: d.dst as u32,
                    stalled_us: stalled.as_micros() as u64,
                },
            );
            self.ship(lane, d.flowlet, d.dst, d.bin);
            // Decrement only after the send: once the runtime observes
            // zero, the bin is already in the per-link FIFO ahead of
            // any completion message it broadcasts next.
            flow.deferred.fetch_sub(1, Ordering::AcqRel);
        }
        self.total_deferred.store(q.len(), Ordering::Release);
    }

    /// Bins currently parked for `f` (suspends the producer and holds
    /// back its completion messages).
    pub(crate) fn deferred_for(&self, f: FlowletId) -> usize {
        self.per_flowlet[f].deferred.load(Ordering::Acquire)
    }

    /// Total parked bins on this node (admission high-water check).
    pub(crate) fn total_deferred(&self) -> usize {
        self.total_deferred.load(Ordering::Acquire)
    }

    /// The parked bins' destinations and payload addresses, in queue
    /// order: what shows that a deferred broadcast shares one frame.
    #[cfg(test)]
    pub(super) fn deferred_payloads(&self) -> Vec<(NodeId, *const u8)> {
        let q = self.deferred.lock();
        q.iter()
            .map(|d| (d.dst, d.bin.frame.data().as_ptr()))
            .collect()
    }

    /// Unacknowledged bins on `(edge, dst)`: what a task end measures
    /// its combine buffers' drain against, and what a stall report
    /// lists.
    #[inline]
    pub(crate) fn inflight(&self, edge: EdgeId, dst: NodeId) -> usize {
        self.inflight[edge * self.nodes + dst].load(Ordering::Acquire)
    }

    /// Fold the accumulated per-flowlet counters into the node's
    /// metrics at teardown.
    pub(crate) fn fold_into(&self, fmetrics: &mut [FlowletMetrics]) {
        for (f, flow) in self.per_flowlet.iter().enumerate() {
            let fm = &mut fmetrics[f];
            fm.bins_out += flow.bins_out.load(Ordering::Relaxed);
            fm.flow_control_stalls += flow.stalls.load(Ordering::Relaxed);
            fm.stall_time += Duration::from_micros(flow.stall_us.load(Ordering::Relaxed));
        }
    }
}

/// Ship custody of `bin`, leaving `node` for `dst`: the tracer's
/// `BinShipped` and the ledger's `Ship`. [`FlowControl::ship`] records
/// it ahead of the fabric send; a served resident frame, which crosses
/// no fabric, records it where it is injected.
pub(crate) fn record_shipped(
    obs: &Observe,
    node: NodeId,
    lane: u32,
    f: FlowletId,
    dst: NodeId,
    bin: &FrameBin,
) {
    obs.tracer.emit(
        node as u32,
        lane,
        EventKind::BinShipped {
            flowlet: f as u32,
            edge: bin.edge as u32,
            dst: dst as u32,
            records: bin.len() as u32,
            bytes: bin.payload_bytes() as u64,
        },
    );
    bin.audit(&obs.audit, AuditStage::Ship, dst);
}
