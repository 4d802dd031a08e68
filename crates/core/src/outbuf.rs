//! Task-side output buffering: partitioning emissions into frame bins.
//!
//! Each running task owns a [`TaskOutput`]. Emissions are routed by the
//! port's [`Exchange`] to destination nodes and appended to a per-slot
//! [`FrameBuilder`] — one contiguous buffer per (port, destination)
//! instead of a `Vec` of per-record allocations. Full frames (at
//! `bin_capacity` records) move to the `finished` list, which the node
//! runtime ships (or defers, under flow control) when the task ends.
//! Buffering per task keeps workers lock-free while they run — the
//! paper's "inside a flowlet task, instructions execute sequentially".
//!
//! The key is hashed once here, at emission, and that hash serves every
//! producer-side use: routing, the hot-key sketch, the combine buffer,
//! and — from the builder's hash column — the statistics fold when the
//! frame closes. It does not ship: the frame carries lengths, keys and
//! values only, and a consumer that shards by key hashes it again.
//! Broadcast ports build one frame and ship cheap clones of it to every
//! node — encode once, refcount per destination.

use crate::graph::{EdgeId, Exchange, FlowletId};
use crate::metrics::FlowletMetrics;
use crate::node::NetMsg;
use crate::plan::{ExecPlan, PortSpec};
use crate::record::{BinKind, FrameBin, Record};
use crate::skew::{Combiner, KeySketch};
use crate::NodeId;
use bytes::Bytes;
use hamr_codec::{stable_hash, Frame, FrameBuilder, StableMap};
use hamr_simnet::Endpoint;
use hamr_trace::{AuditStage, EventKind, Gauge, HopKind, Labels, Observe};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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
    window: usize,
    endpoint: Endpoint<NetMsg>,
    obs: Observe,
    /// In-flight (unacked) bins per (edge, destination node) slot.
    inflight: Vec<AtomicUsize>,
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
    fn try_reserve(&self, slot: usize) -> bool {
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

    /// Ship `bin` to `dst` if its window has room, else park it in the
    /// deferred queue (suspending the producing flowlet). `lane` is the
    /// trace lane of the calling thread (worker id, or
    /// [`hamr_trace::WORKER_RUNTIME`]).
    pub(crate) fn ship_or_defer(&self, lane: u32, f: FlowletId, dst: NodeId, bin: FrameBin) {
        let slot = bin.edge * self.nodes + dst;
        if self.try_reserve(slot) {
            self.window_gauge.add(1);
            self.per_flowlet[f].bins_out.fetch_add(1, Ordering::Relaxed);
            self.obs.tracer.emit(
                self.node as u32,
                lane,
                EventKind::BinShipped {
                    flowlet: f as u32,
                    edge: bin.edge as u32,
                    dst: dst as u32,
                    records: bin.len() as u32,
                    bytes: bin.payload_bytes() as u64,
                    span: bin.span,
                },
            );
            self.obs.audit.record(
                AuditStage::Ship,
                bin.edge as u32,
                dst as u32,
                bin.len() as u64,
                bin.payload_bytes() as u64,
            );
            let _ = self.endpoint.send(dst, NetMsg::Bin(bin));
            return;
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
                span: bin.span,
            },
        );
        {
            let mut q = self.deferred.lock().unwrap_or_else(|p| p.into_inner());
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
        let mut q = self.deferred.lock().unwrap_or_else(|p| p.into_inner());
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
            flow.bins_out.fetch_add(1, Ordering::Relaxed);
            flow.stall_us
                .fetch_add(stalled.as_micros() as u64, Ordering::Relaxed);
            self.stall_gauge.add(stalled.as_micros() as i64);
            self.window_gauge.add(1);
            self.deferred_gauge.sub(1);
            self.obs.tracer.emit(
                self.node as u32,
                lane,
                EventKind::FlowControlResume {
                    flowlet: d.flowlet as u32,
                    edge: d.bin.edge as u32,
                    dst: d.dst as u32,
                    stalled_us: stalled.as_micros() as u64,
                    span: d.bin.span,
                },
            );
            self.obs.tracer.emit(
                self.node as u32,
                lane,
                EventKind::BinShipped {
                    flowlet: d.flowlet as u32,
                    edge: d.bin.edge as u32,
                    dst: d.dst as u32,
                    records: d.bin.len() as u32,
                    bytes: d.bin.payload_bytes() as u64,
                    span: d.bin.span,
                },
            );
            self.obs.audit.record(
                AuditStage::Ship,
                d.bin.edge as u32,
                d.dst as u32,
                d.bin.len() as u64,
                d.bin.payload_bytes() as u64,
            );
            let flowlet = d.flowlet;
            let _ = self.endpoint.send(d.dst, NetMsg::Bin(d.bin));
            // Decrement only after the send: once the runtime observes
            // zero, the bin is already in the per-link FIFO ahead of
            // any completion message it broadcasts next.
            self.per_flowlet[flowlet]
                .deferred
                .fetch_sub(1, Ordering::AcqRel);
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

    /// In-flight bins on `(edge, dst)` — stall diagnostics only.
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

/// Per-port in-node combiner buffer: one partial per distinct key,
/// folded in place as duplicates arrive. Flushed through normal
/// routing once `bin_capacity` distinct keys accumulate (bounding
/// memory to the same order as an uncombined bin) and at task finish.
struct CombineBuf {
    combiner: Arc<dyn Combiner>,
    map: StableMap<Vec<u8>, (u64, Vec<u8>)>,
    /// Records folded into the map (pre-combine input count) — feeds
    /// the audit ledger's combine side-table.
    records_in: u64,
    scratch: Vec<u8>,
}

impl CombineBuf {
    fn new(combiner: Arc<dyn Combiner>) -> Self {
        CombineBuf {
            combiner,
            map: StableMap::default(),
            records_in: 0,
            scratch: Vec::new(),
        }
    }

    /// Fold one record; returns true if it merged into an existing key
    /// (one record absorbed) rather than starting a new partial.
    fn fold(&mut self, hash: u64, key: &[u8], value: &[u8]) -> bool {
        self.records_in += 1;
        if let Some((_, old)) = self.map.get_mut(key) {
            self.scratch.clear();
            self.combiner.combine(key, old, value, &mut self.scratch);
            std::mem::swap(old, &mut self.scratch);
            true
        } else {
            self.map.insert(key.to_vec(), (hash, value.to_vec()));
            false
        }
    }
}

/// Per-task skew-mitigation state, attached only when some output
/// port combines or may scatter.
struct SkewState {
    /// Per-port combine buffer (`PortSpec::combine`).
    combine: Vec<Option<CombineBuf>>,
    /// Per-port hot-key sketch (`PortSpec::scatter`). Observes
    /// *pre-combine* emissions — post-combine each key would appear
    /// once per task and never cross the threshold.
    sketch: Vec<Option<KeySketch>>,
    /// Open scatter frames per (port, destination), kept apart from the
    /// normal slots because their bins ship as [`BinKind::Scatter`].
    scatter_open: Vec<Option<FrameBuilder>>,
    /// Round-robin cursor for scatter destinations, seeded with the
    /// node id so different producers interleave their targets.
    rr: usize,
    combined: u64,
    splits: u64,
}

/// A closed frame's entries beside the producer's hashes for them (the
/// builder's column), as the statistics plane folds them:
/// `(hash, key, value length)`.
pub(crate) fn hashed_entries<'a>(
    frame: &'a Frame,
    hashes: &'a [u64],
) -> impl Iterator<Item = (u64, &'a [u8], usize)> {
    hashes
        .iter()
        .zip(frame.iter())
        .map(|(&h, (k, v))| (h, k, v.len()))
}

/// Everything a finished task hands over.
#[derive(Default)]
pub(crate) struct TaskParts {
    /// Packed bins ready to ship, with their destination.
    pub bins: Vec<(NodeId, FrameBin)>,
    /// Records captured as job output.
    pub captured: Vec<Record>,
    /// Pinned clones of every `Normal`-kind frame closed on a
    /// cache-filling port, keyed by (edge, destination node). The clone
    /// is a refcount bump on the frame's `Bytes`, taken *after*
    /// combining but *before* the bin ships, so a later serve replays
    /// byte-identical post-combine frames.
    pub fill: Vec<(EdgeId, NodeId, Frame)>,
    /// Records absorbed by in-node combining (each fold merges two
    /// partials into one, absorbing one record).
    pub combined: u64,
    /// Hot keys this task's sketch flagged for splitting.
    pub splits: u64,
}

/// Buffers one task's emissions.
pub(crate) struct TaskOutput {
    /// The flowlet's output ports, resolved once per job and shared by
    /// all of its tasks.
    ports: Arc<[PortSpec]>,
    node: NodeId,
    nodes: usize,
    bin_capacity: usize,
    /// Open (partially filled) frame per (port, destination node).
    /// Broadcast ports use only their first slot: one frame is built
    /// and cloned to every destination when it closes.
    open: Vec<Option<FrameBuilder>>,
    /// Finished bins, captured output and pinned fill frames; the
    /// mitigation counters are filled in at the end.
    done: TaskParts,
    capture_enabled: bool,
    /// Reusable encode buffer for typed emits (see `emit_encoded`).
    scratch: Vec<u8>,
    flowlet_name: Arc<str>,
    /// Producing flowlet id + trace lane of the executing thread: the
    /// provenance stamped on every minted bin span.
    flowlet_id: u32,
    lane: u32,
    /// The job's sinks. Its statistics plane folds closed frames using
    /// the builder's hash column — pure observation, never routing.
    obs: Observe,
    /// Skew-mitigation state; `None` for unaffected flowlets.
    skew: Option<SkewState>,
}

impl TaskOutput {
    /// The output buffer of one task of `flowlet`, run by `lane` on
    /// `node`. Hot-key sketches come out of the executing worker's
    /// `sketches` and go back, cleared, in [`Self::into_parts`].
    pub(crate) fn new(
        plan: &ExecPlan,
        flowlet: FlowletId,
        node: NodeId,
        lane: u32,
        obs: &Observe,
        sketches: &mut Vec<KeySketch>,
    ) -> Self {
        let fp = &plan.flowlets[flowlet];
        let slots = fp.ports.len() * plan.nodes;
        let skew = fp
            .ports
            .iter()
            .any(|p| p.combine || p.scatter)
            .then(|| SkewState {
                combine: fp
                    .ports
                    .iter()
                    .map(|p| {
                        let combiner = plan.edges[p.edge].combiner.as_ref();
                        combiner.filter(|_| p.combine).cloned().map(CombineBuf::new)
                    })
                    .collect(),
                sketch: fp
                    .ports
                    .iter()
                    .map(|p| {
                        p.scatter.then(|| {
                            sketches
                                .pop()
                                .unwrap_or_else(|| KeySketch::new(plan.split_threshold))
                        })
                    })
                    .collect(),
                scatter_open: (0..slots).map(|_| None).collect(),
                rr: node,
                combined: 0,
                splits: 0,
            });
        TaskOutput {
            ports: Arc::clone(&fp.ports),
            node,
            nodes: plan.nodes,
            bin_capacity: plan.bin_capacity,
            open: (0..slots).map(|_| None).collect(),
            done: TaskParts::default(),
            capture_enabled: fp.capture,
            scratch: Vec::new(),
            flowlet_name: Arc::clone(&fp.name),
            flowlet_id: flowlet as u32,
            lane,
            obs: obs.clone(),
            skew,
        }
    }

    /// Freeze a finished builder into a bin for `dst`.
    fn close_bin(&mut self, dst: NodeId, port: usize, builder: FrameBuilder, kind: BinKind) {
        let (frame, hashes) = builder.finish();
        self.close_frame(dst, port, frame, &hashes, kind);
    }

    /// Close a frozen frame into a bin, minting its lineage span and
    /// emitting `BinEmitted` when tracing is on. Disabled tracing costs
    /// one branch: the bin keeps span 0 and no id is allocated.
    /// `hashes` is the frame's builder column, entry for entry.
    fn close_frame(
        &mut self,
        dst: NodeId,
        port: usize,
        frame: Frame,
        hashes: &[u64],
        kind: BinKind,
    ) {
        let PortSpec { edge, fill, .. } = self.ports[port];
        // Pin a clone for the resident store before the frame moves
        // into the bin. Only Normal bins are cached: scatter/merged
        // skew traffic is nondeterministic routing, not dataflow.
        if fill && kind == BinKind::Normal {
            self.done.fill.push((edge, dst, frame.clone()));
        }
        if let Some(plane) = &self.obs.stats {
            let hop = match kind {
                BinKind::Normal => HopKind::Emit,
                BinKind::Scatter => HopKind::Scatter,
                BinKind::Merged => HopKind::Merged,
            };
            plane.fold_bin(
                edge as u32,
                dst as u32,
                hop,
                self.flowlet_id,
                &self.flowlet_name,
                self.node as u32,
                hashed_entries(&frame, hashes),
            );
        }
        let mut bin = FrameBin::new(edge, frame).with_kind(kind);
        // Emit custody is tallied regardless of tracing: the audit
        // ledger must balance even when the trace stream is off.
        self.obs.audit.record(
            AuditStage::Emit,
            edge as u32,
            dst as u32,
            bin.len() as u64,
            bin.payload_bytes() as u64,
        );
        if self.obs.tracer.enabled() {
            bin.span = self.obs.tracer.mint_span();
            self.obs.tracer.emit(
                self.node as u32,
                self.lane,
                EventKind::BinEmitted {
                    flowlet: self.flowlet_id,
                    edge: edge as u32,
                    dst: dst as u32,
                    span: bin.span,
                    records: bin.len() as u32,
                },
            );
        }
        self.done.bins.push((dst, bin));
    }

    pub(crate) fn ports(&self) -> usize {
        self.ports.len()
    }

    /// A fresh builder sized for `bin_capacity` small records (24
    /// payload bytes each: two length bytes and a short key and value;
    /// the hash is in the builder's column) without growing, capped so
    /// huge capacities don't pre-commit memory.
    #[inline]
    fn new_builder(bin_capacity: usize) -> FrameBuilder {
        let records = bin_capacity.min(1024);
        FrameBuilder::with_capacity(records, records * 24)
    }

    #[inline]
    fn append(&mut self, port: usize, dst: NodeId, hash: u64, key: &[u8], value: &[u8]) {
        let slot = port * self.nodes + dst;
        let cap = self.bin_capacity;
        let builder = self.open[slot].get_or_insert_with(|| Self::new_builder(cap));
        builder.push(hash, key, value);
        if builder.len() >= self.bin_capacity {
            let full = self.open[slot].take().expect("builder present");
            self.close_bin(dst, port, full, BinKind::Normal);
        }
    }

    /// Route one record out of `port`. The key is hashed here, once;
    /// every producer-side use of the hash takes it from here.
    #[inline]
    pub(crate) fn emit(&mut self, port: usize, key: &[u8], value: &[u8]) {
        let spec = match self.ports.get(port) {
            Some(s) => *s,
            None => panic!(
                "flowlet {} emitted on port {port} but has only {} connected output(s)",
                self.flowlet_name,
                self.ports.len()
            ),
        };
        let hash = stable_hash(key);
        match spec.exchange {
            Exchange::Hash if spec.combine || spec.scatter => {
                self.emit_skew(port, hash, key, value);
            }
            Exchange::Hash => {
                let dst = (hash % self.nodes as u64) as usize;
                self.append(port, dst, hash, key, value);
            }
            Exchange::Local => {
                let node = self.node;
                self.append(port, node, hash, key, value);
            }
            Exchange::Broadcast => {
                // Encode once into the port's shared builder; clones go
                // out per destination when the frame closes.
                let slot = port * self.nodes;
                let cap = self.bin_capacity;
                let builder = self.open[slot].get_or_insert_with(|| Self::new_builder(cap));
                builder.push(hash, key, value);
                if builder.len() >= self.bin_capacity {
                    let full = self.open[slot].take().expect("builder present");
                    self.broadcast_frame(port, full);
                }
            }
            Exchange::KeyNode => {
                let mut input = key;
                let node = hamr_codec::read_varint(&mut input)
                    .expect("Exchange::KeyNode requires a u64 node-id key")
                    as usize;
                let dst = node % self.nodes;
                self.append(port, dst, hash, key, value);
            }
        }
    }

    /// Ship one broadcast frame to every node as refcounted clones.
    /// Each destination's clone gets its own lineage span: the copies
    /// travel (and may stall) independently.
    fn broadcast_frame(&mut self, port: usize, builder: FrameBuilder) {
        let (frame, hashes) = builder.finish();
        for dst in 0..self.nodes {
            self.close_frame(dst, port, frame.clone(), &hashes, BinKind::Normal);
        }
    }

    /// Emit on a Hash port that combines or may scatter: sketch the
    /// key, then fold it into the port's combine buffer or route it.
    fn emit_skew(&mut self, port: usize, hash: u64, key: &[u8], value: &[u8]) {
        let st = self.skew.as_mut().expect("skew state present");
        // The hot-key sketch observes the *pre-combine* stream: the raw
        // record pressure is what makes a key hot.
        if let Some(sk) = st.sketch[port].as_mut() {
            if sk.observe(hash) {
                st.splits += 1;
            }
        }
        let Some(buf) = st.combine[port].as_mut() else {
            // Splitting without combining: route now.
            return self.route_one(port, hash, key, value);
        };
        if buf.fold(hash, key, value) {
            st.combined += 1;
        }
        if buf.map.len() >= self.bin_capacity {
            self.flush_combine(port);
        }
    }

    /// Route one (possibly pre-combined) record on a Hash port: to its
    /// hash home, unless the port's sketch (present only where the edge
    /// may scatter) has flagged the key hot — then scatter it
    /// round-robin across all nodes.
    fn route_one(&mut self, port: usize, hash: u64, key: &[u8], value: &[u8]) {
        let st = self.skew.as_mut().expect("skew state present");
        if !st.sketch[port].as_ref().is_some_and(|s| s.is_hot(hash)) {
            let home = (hash % self.nodes as u64) as usize;
            return self.append(port, home, hash, key, value);
        }
        let dst = st.rr % self.nodes;
        st.rr += 1;
        self.append_scatter(port, dst, hash, key, value);
    }

    /// Like [`Self::append`], but into the port's scatter frames; full
    /// frames close as [`BinKind::Scatter`] so the receiver absorbs
    /// them instead of feeding its reduce directly.
    fn append_scatter(&mut self, port: usize, dst: NodeId, hash: u64, key: &[u8], value: &[u8]) {
        let cap = self.bin_capacity;
        let slot = port * self.nodes + dst;
        let full = {
            let st = self.skew.as_mut().expect("skew state present");
            let builder = st.scatter_open[slot].get_or_insert_with(|| Self::new_builder(cap));
            builder.push(hash, key, value);
            if builder.len() >= self.bin_capacity {
                st.scatter_open[slot].take()
            } else {
                None
            }
        };
        if let Some(b) = full {
            self.close_bin(dst, port, b, BinKind::Scatter);
        }
    }

    /// Drain the port's combine buffer through routing, tallying the
    /// pre/post-combine custody pair in the audit side-table.
    fn flush_combine(&mut self, port: usize) {
        let (entries, records_in) = {
            let st = self.skew.as_mut().expect("skew state present");
            match st.combine[port].as_mut() {
                Some(buf) if !buf.map.is_empty() => {
                    let records_in = std::mem::take(&mut buf.records_in);
                    (buf.map.drain().collect::<Vec<_>>(), records_in)
                }
                _ => return,
            }
        };
        self.obs.audit.combined(
            self.ports[port].edge as u32,
            records_in,
            entries.len() as u64,
        );
        for (key, (hash, value)) in entries {
            self.route_one(port, hash, &key, &value);
        }
    }

    /// Encode a typed pair through the reusable scratch buffer and emit
    /// it — zero allocations per record once the scratch has grown.
    #[inline]
    pub(crate) fn emit_encoded<K: hamr_codec::Codec, V: hamr_codec::Codec>(
        &mut self,
        port: usize,
        key: &K,
        value: &V,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        key.encode(&mut scratch);
        let split = scratch.len();
        value.encode(&mut scratch);
        self.emit(port, &scratch[..split], &scratch[split..]);
        self.scratch = scratch;
    }

    /// Encode a typed pair once and emit it on every port.
    #[inline]
    pub(crate) fn emit_all_encoded<K: hamr_codec::Codec, V: hamr_codec::Codec>(
        &mut self,
        key: &K,
        value: &V,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        key.encode(&mut scratch);
        let split = scratch.len();
        value.encode(&mut scratch);
        for port in 0..self.ports.len() {
            self.emit(port, &scratch[..split], &scratch[split..]);
        }
        self.scratch = scratch;
    }

    /// Record a captured job-output pair.
    pub(crate) fn capture(&mut self, key: Bytes, value: Bytes) {
        if self.capture_enabled {
            self.done.captured.push(Record::new(key, value));
        }
    }

    /// Finish the task: flush combine buffers, partial frames, and
    /// scatter frames, and hand everything over with the task's
    /// mitigation counters.
    pub(crate) fn into_parts(mut self, sketches: &mut Vec<KeySketch>) -> TaskParts {
        // Combine buffers feed the normal/scatter frames, so they
        // flush first.
        if self.skew.is_some() {
            for port in 0..self.ports.len() {
                self.flush_combine(port);
            }
        }
        for slot in 0..self.open.len() {
            if let Some(builder) = self.open[slot].take() {
                if builder.is_empty() {
                    continue;
                }
                let port = slot / self.nodes;
                if matches!(self.ports[port].exchange, Exchange::Broadcast) {
                    self.broadcast_frame(port, builder);
                } else {
                    self.close_bin(slot % self.nodes, port, builder, BinKind::Normal);
                }
            }
        }
        if let Some(mut st) = self.skew.take() {
            let scatter = std::mem::take(&mut st.scatter_open);
            for (slot, builder) in scatter.into_iter().enumerate() {
                if let Some(b) = builder.filter(|b| !b.is_empty()) {
                    let (port, dst) = (slot / self.nodes, slot % self.nodes);
                    self.close_bin(dst, port, b, BinKind::Scatter);
                }
            }
            self.done.combined = st.combined;
            self.done.splits = st.splits;
            for mut sketch in st.sketch.into_iter().flatten() {
                sketch.clear();
                sketches.push(sketch);
            }
        }
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamr_codec::partition;

    /// The output of one task of a loader named "test" with one port
    /// per entry of `exchanges` (edge id == port), compiled the way a
    /// job's would be.
    fn out_with(
        exchanges: &[Exchange],
        node: NodeId,
        nodes: usize,
        cap: usize,
        capture: bool,
    ) -> TaskOutput {
        let mut b = crate::JobBuilder::new("outbuf");
        let l = b.add_loader("test", crate::typed::pairs_loader(Vec::<(u64, u64)>::new()));
        for (i, &exchange) in exchanges.iter().enumerate() {
            let m = b.add_map(
                format!("m{i}"),
                crate::typed::map_fn(|_: u64, _: u64, _: &mut crate::Emitter| {}),
            );
            b.connect(l, m, exchange);
        }
        if capture {
            b.capture_output(l);
        }
        let cfg = crate::RuntimeConfig {
            bin_capacity: cap,
            ..Default::default()
        };
        let store = crate::ResidentStore::new();
        let plan = ExecPlan::compile(&Arc::new(b.build().unwrap()), &cfg, nodes, &store);
        TaskOutput::new(&plan, l, node, 0, &Observe::default(), &mut Vec::new())
    }

    fn out(exchanges: &[Exchange], node: NodeId, nodes: usize, cap: usize) -> TaskOutput {
        out_with(exchanges, node, nodes, cap, true)
    }

    fn finish(o: TaskOutput) -> (Vec<(NodeId, FrameBin)>, Vec<Record>) {
        let parts = o.into_parts(&mut Vec::new());
        (parts.bins, parts.captured)
    }

    #[test]
    fn local_exchange_stays_on_node() {
        let mut o = out(&[Exchange::Local], 2, 4, 100);
        o.emit(0, b"k", b"v");
        let (bins, _) = finish(o);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].0, 2);
        assert_eq!(bins[0].1.edge, 0);
        assert_eq!(bins[0].1.len(), 1);
    }

    #[test]
    fn hash_exchange_routes_by_key() {
        let nodes = 4;
        let mut o = out(&[Exchange::Hash], 0, nodes, 1000);
        for i in 0..100u64 {
            o.emit(0, format!("key{i}").as_bytes(), b"v");
        }
        let (bins, _) = finish(o);
        // Each key must be in the bin for its partition.
        for (dst, bin) in &bins {
            for (key, _) in bin.frame.iter() {
                assert_eq!(partition(key, nodes), *dst);
            }
        }
        let total: usize = bins.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 100);
        assert!(bins.len() >= 2, "keys should spread over nodes");
    }

    #[test]
    fn key_node_routes_to_named_node() {
        let nodes = 4;
        let mut o = out(&[Exchange::KeyNode], 0, nodes, 100);
        for node in 0..6u64 {
            o.emit(0, &hamr_codec::Codec::to_bytes(&node), b"v");
        }
        let (bins, _) = finish(o);
        for (dst, bin) in &bins {
            for (key, _) in bin.frame.iter() {
                let mut input = key;
                let node = hamr_codec::read_varint(&mut input).unwrap() as usize;
                assert_eq!(node % nodes, *dst);
            }
        }
        let total: usize = bins.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn broadcast_reaches_every_node() {
        let mut o = out(&[Exchange::Broadcast], 0, 3, 10);
        o.emit(0, b"k", b"v");
        let (bins, _) = finish(o);
        let mut dsts: Vec<_> = bins.iter().map(|(d, _)| *d).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![0, 1, 2]);
    }

    #[test]
    fn broadcast_encodes_once_and_clones() {
        let mut o = out(&[Exchange::Broadcast], 0, 3, 10);
        o.emit(0, b"key", b"value");
        o.emit(0, b"key2", b"value2");
        let (bins, _) = finish(o);
        assert_eq!(bins.len(), 3);
        // All three destinations share one payload allocation.
        let first = bins[0].1.frame.data().as_ptr();
        for (_, bin) in &bins {
            assert_eq!(bin.frame.data().as_ptr(), first);
            assert_eq!(bin.len(), 2);
        }
    }

    #[test]
    fn broadcast_closes_full_frames_per_capacity() {
        let nodes = 2;
        let mut o = out(&[Exchange::Broadcast], 0, nodes, 3);
        for i in 0..7u64 {
            o.emit(0, &i.to_le_bytes(), b"v");
        }
        let (bins, _) = finish(o);
        // 7 records at capacity 3 -> frames of 3, 3, 1, each cloned to
        // both nodes.
        assert_eq!(bins.len(), 3 * nodes);
        for dst in 0..nodes {
            let sizes: Vec<_> = bins
                .iter()
                .filter(|(d, _)| *d == dst)
                .map(|(_, b)| b.len())
                .collect();
            assert_eq!(sizes, vec![3, 3, 1]);
        }
    }

    #[test]
    fn full_bins_close_at_capacity() {
        let mut o = out(&[Exchange::Local], 0, 1, 3);
        for i in 0..7u64 {
            o.emit(0, &i.to_le_bytes(), b"v");
        }
        let (bins, _) = finish(o);
        // 7 records at capacity 3 -> bins of 3, 3, 1.
        let sizes: Vec<_> = bins.iter().map(|(_, b)| b.len()).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn emit_encoded_round_trips_typed_pairs() {
        let mut o = out(&[Exchange::Local], 0, 1, 10);
        o.emit_encoded(0, &"word".to_string(), &7u64);
        let (bins, _) = finish(o);
        let (key, value) = bins[0].1.frame.iter().next().unwrap();
        let k: String = hamr_codec::Codec::from_bytes(key).unwrap();
        let v: u64 = hamr_codec::Codec::from_bytes(value).unwrap();
        assert_eq!((k.as_str(), v), ("word", 7));
    }

    #[test]
    fn capture_collects_when_enabled() {
        let b = |s: &str| Bytes::copy_from_slice(s.as_bytes());
        let mut o = out(&[], 0, 1, 10);
        o.capture(b("k"), b("v"));
        let (bins, captured) = finish(o);
        assert!(bins.is_empty());
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].key, b("k"));
    }

    #[test]
    fn capture_ignored_when_disabled() {
        let b = |s: &str| Bytes::copy_from_slice(s.as_bytes());
        let mut o = out_with(&[], 0, 1, 10, false);
        o.capture(b("k"), b("v"));
        let (_, captured) = finish(o);
        assert!(captured.is_empty());
    }

    #[test]
    #[should_panic(expected = "port 1")]
    fn emitting_on_unconnected_port_panics() {
        let mut o = out(&[Exchange::Local], 0, 1, 10);
        o.emit(1, b"k", b"v");
    }

    #[test]
    fn multiple_ports_route_independently() {
        let mut o = out(&[Exchange::Local, Exchange::Broadcast], 1, 2, 100);
        o.emit(0, b"a", b"1");
        o.emit(1, b"b", b"2");
        let (bins, _) = finish(o);
        let edges: std::collections::BTreeSet<_> = bins.iter().map(|(_, b)| b.edge).collect();
        assert_eq!(edges.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        let port1_count: usize = bins
            .iter()
            .filter(|(_, b)| b.edge == 1)
            .map(|(_, b)| b.len())
            .sum();
        assert_eq!(port1_count, 2, "broadcast to both nodes");
    }
}
