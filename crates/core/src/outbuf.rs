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
//! The key is hashed exactly once here, at emission; the 64-bit hash
//! rides in front of the entry so downstream consumers (reduce
//! sub-sharding, partial-reduce striping) never hash it again.
//! Broadcast ports build one frame and ship cheap clones of it to every
//! node — encode once, refcount per destination.

use crate::graph::{EdgeId, Exchange, FlowletId};
use crate::metrics::FlowletMetrics;
use crate::node::NetMsg;
use crate::record::{BinKind, FrameBin, Record};
use crate::skew::{Combiner, KeySketch, SkewRuntime};
use crate::NodeId;
use bytes::Bytes;
use hamr_codec::{stable_hash, FrameBuilder};
use hamr_simnet::Endpoint;
use hamr_trace::{AuditStage, EventKind, Gauge, HopKind, Observe};
use std::collections::{HashMap, VecDeque};
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
    /// Telemetry: bins parked in the deferred queue.
    deferred_gauge: Gauge,
    /// Telemetry: total occupied window slots (unacked bins in flight).
    window_gauge: Gauge,
    /// Telemetry: cumulative microseconds bins spent parked behind
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
        let telemetry = &obs.telemetry;
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
            deferred_gauge: telemetry.register(node as u32, format!("node{node}/deferred_bins")),
            window_gauge: telemetry.register(node as u32, format!("node{node}/window_inflight")),
            stall_gauge: telemetry.register(node as u32, format!("node{node}/stall_us_total")),
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

/// One output port as seen by a task.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortSpec {
    pub edge: EdgeId,
    pub exchange: Exchange,
}

/// Shared sink collecting pinned clones of every `Normal`-kind frame
/// closed on a cache-filling edge. The clone is a refcount bump on the
/// frame's `Bytes`, taken *after* combining but *before* the bin ships,
/// so a later serve replays byte-identical post-combine frames. Drained
/// once per node at runtime teardown into [`NodeOutcome::fill`].
pub(crate) struct FillSink {
    /// Edge-indexed capture mask (true = edge fills the resident store).
    pub mask: Vec<bool>,
    pub frames: Mutex<Vec<(EdgeId, NodeId, hamr_codec::Frame)>>,
}

impl FillSink {
    pub(crate) fn new(mask: Vec<bool>) -> Self {
        FillSink {
            mask,
            frames: Mutex::new(Vec::new()),
        }
    }

    fn capture(&self, edge: EdgeId, dst: NodeId, frame: &hamr_codec::Frame) {
        self.frames
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push((edge, dst, frame.clone()));
    }

    pub(crate) fn drain(&self) -> Vec<(EdgeId, NodeId, hamr_codec::Frame)> {
        std::mem::take(&mut *self.frames.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// Per-port in-node combiner buffer: one partial per distinct key,
/// folded in place as duplicates arrive. Flushed through normal
/// routing once `bin_capacity` distinct keys accumulate (bounding
/// memory to the same order as an uncombined bin) and at task finish.
struct CombineBuf {
    combiner: Arc<dyn Combiner>,
    map: HashMap<Vec<u8>, (u64, Vec<u8>)>,
    /// Records folded into the map (pre-combine input count) — feeds
    /// the audit ledger's combine side-table.
    records_in: u64,
    scratch: Vec<u8>,
}

impl CombineBuf {
    fn new(combiner: Arc<dyn Combiner>) -> Self {
        CombineBuf {
            combiner,
            map: HashMap::new(),
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
/// edge has a mechanism enabled (see [`SkewRuntime::active_for`]).
struct SkewState {
    rt: Arc<SkewRuntime>,
    /// Per-port combine buffer (combine enabled on the port's edge).
    combine: Vec<Option<CombineBuf>>,
    /// Per-port hot-key sketch (splitting enabled on the port's edge).
    /// Observes *pre-combine* emissions — post-combine each key would
    /// appear once per task and never cross the threshold.
    sketch: Vec<Option<KeySketch>>,
    /// Open scatter frames per (port, destination), kept apart from the
    /// normal slots because their bins ship as [`BinKind::Scatter`].
    scatter_open: Vec<Option<FrameBuilder>>,
    /// Round-robin cursor for scatter destinations, seeded with the
    /// node id so different producers interleave their targets.
    rr: usize,
    /// Pre-combine records per (port, home) — flushed to the planner's
    /// per-(edge, home) load signal at task finish.
    tallies: Vec<u64>,
    combined: u64,
    splits: u64,
}

/// Mitigation counters handed back alongside a finished task's bins.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SkewStats {
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
    /// Packed bins ready to ship, with their destination.
    finished: Vec<(NodeId, FrameBin)>,
    /// Records captured as job output.
    captured: Vec<Record>,
    capture_enabled: bool,
    /// Reusable encode buffer for typed emits (see `emit_encoded`).
    scratch: Vec<u8>,
    flowlet_name: Arc<str>,
    /// Producing flowlet id + trace lane of the executing thread: the
    /// provenance stamped on every minted bin span.
    flowlet_id: u32,
    lane: u32,
    /// The job's sinks. Its statistics plane folds closed frames using
    /// the hashes already in them — pure observation, never routing.
    obs: Observe,
    /// Skew-mitigation state; `None` for unaffected flowlets, so the
    /// common emit path pays one branch.
    skew: Option<SkewState>,
    /// Resident-cache fill sink; `None` unless some output edge is
    /// annotated `cache_as`/`resident` and missed the store this run.
    fill: Option<Arc<FillSink>>,
}

impl TaskOutput {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ports: Arc<[PortSpec]>,
        node: NodeId,
        nodes: usize,
        bin_capacity: usize,
        capture_enabled: bool,
        flowlet_name: Arc<str>,
        flowlet_id: u32,
        lane: u32,
        obs: &Observe,
    ) -> Self {
        let slots = ports.len() * nodes;
        TaskOutput {
            ports,
            node,
            nodes,
            bin_capacity,
            open: (0..slots).map(|_| None).collect(),
            finished: Vec::new(),
            captured: Vec::new(),
            capture_enabled,
            scratch: Vec::new(),
            flowlet_name,
            flowlet_id,
            lane,
            obs: obs.clone(),
            skew: None,
            fill: None,
        }
    }

    /// Attach the node's fill sink (builder style). A no-op when none
    /// of this task's output edges fills the resident store.
    pub(crate) fn with_fill(mut self, sink: &Arc<FillSink>) -> Self {
        if self
            .ports
            .iter()
            .any(|p| sink.mask.get(p.edge).copied().unwrap_or(false))
        {
            self.fill = Some(Arc::clone(sink));
        }
        self
    }

    /// Attach skew-mitigation state (builder style). A no-op when no
    /// mechanism touches any of this task's output edges. Hot-key
    /// sketches come out of the executing worker's `sketches` and go
    /// back, cleared, in [`Self::into_parts_stats`].
    pub(crate) fn with_skew(
        mut self,
        rt: &Arc<SkewRuntime>,
        sketches: &mut Vec<KeySketch>,
    ) -> Self {
        if !rt.active_for(self.ports.iter().map(|p| p.edge)) {
            return self;
        }
        let mut combine = Vec::with_capacity(self.ports.len());
        let mut sketch = Vec::with_capacity(self.ports.len());
        for p in self.ports.iter() {
            combine.push(if rt.combine_on(p.edge) {
                rt.combiner(p.edge).map(|c| CombineBuf::new(c.clone()))
            } else {
                None
            });
            sketch.push(if rt.scatter_on(p.edge) && rt.cfg.split {
                Some(
                    sketches
                        .pop()
                        .unwrap_or_else(|| KeySketch::new(rt.cfg.split_threshold)),
                )
            } else {
                None
            });
        }
        self.skew = Some(SkewState {
            rt: rt.clone(),
            combine,
            sketch,
            scatter_open: (0..self.ports.len() * self.nodes).map(|_| None).collect(),
            rr: self.node,
            tallies: vec![0; self.ports.len() * self.nodes],
            combined: 0,
            splits: 0,
        });
        self
    }

    /// Close a finished frame into a bin, minting its lineage span and
    /// emitting `BinEmitted` when tracing is on. Disabled tracing costs
    /// one branch: the bin keeps span 0 and no id is allocated.
    fn close_bin(&mut self, dst: NodeId, edge: EdgeId, frame: hamr_codec::Frame) {
        self.close_bin_kind(dst, edge, frame, BinKind::Normal);
    }

    fn close_bin_kind(
        &mut self,
        dst: NodeId,
        edge: EdgeId,
        frame: hamr_codec::Frame,
        kind: BinKind,
    ) {
        // Pin a clone for the resident store before the frame moves
        // into the bin. Only Normal bins are cached: scatter/merged
        // skew traffic is nondeterministic routing, not dataflow.
        if kind == BinKind::Normal {
            if let Some(sink) = &self.fill {
                if sink.mask.get(edge).copied().unwrap_or(false) {
                    sink.capture(edge, dst, &frame);
                }
            }
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
                frame.iter().map(|(h, k, v)| (h, k, v.len())),
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
        self.finished.push((dst, bin));
    }

    pub(crate) fn ports(&self) -> usize {
        self.ports.len()
    }

    /// Sizing hint for a fresh frame buffer: enough for `bin_capacity`
    /// small records without growing, capped so huge capacities don't
    /// pre-commit memory.
    #[inline]
    fn frame_capacity_hint(&self) -> usize {
        (self.bin_capacity.min(1024)) * 32
    }

    #[inline]
    fn append(&mut self, port: usize, dst: NodeId, hash: u64, key: &[u8], value: &[u8]) {
        let slot = port * self.nodes + dst;
        let hint = self.frame_capacity_hint();
        let builder = self.open[slot].get_or_insert_with(|| FrameBuilder::with_capacity(hint));
        builder.push(hash, key, value);
        if builder.len() >= self.bin_capacity {
            let full = self.open[slot].take().expect("builder present");
            self.close_bin(dst, self.ports[port].edge, full.freeze());
        }
    }

    /// Route one record out of `port`. The key is hashed here, once;
    /// every downstream use of the hash reads it from the frame.
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
            Exchange::Hash => {
                if self.skew.is_some() && self.emit_skew(port, spec.edge, hash, key, value) {
                    return;
                }
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
                let hint = self.frame_capacity_hint();
                let builder =
                    self.open[slot].get_or_insert_with(|| FrameBuilder::with_capacity(hint));
                builder.push(hash, key, value);
                if builder.len() >= self.bin_capacity {
                    let full = self.open[slot].take().expect("builder present");
                    self.broadcast_frame(spec.edge, full);
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
    fn broadcast_frame(&mut self, edge: EdgeId, builder: FrameBuilder) {
        let frame = builder.freeze();
        for dst in 0..self.nodes {
            self.close_bin(dst, edge, frame.clone());
        }
    }

    /// Skew-aware emit on a Hash port. Returns true when the record
    /// was consumed here (combined or routed); false hands it back to
    /// the plain hash path.
    fn emit_skew(
        &mut self,
        port: usize,
        edge: EdgeId,
        hash: u64,
        key: &[u8],
        value: &[u8],
    ) -> bool {
        let nodes = self.nodes;
        let needs_flush = {
            let st = self.skew.as_mut().expect("skew state present");
            let combine = st.rt.combine_on(edge);
            let scatter = st.rt.scatter_on(edge);
            if !combine && !scatter {
                return false;
            }
            // Planner signal and hot-key sketch both observe the
            // *pre-combine* stream: the raw per-home record pressure is
            // what makes a partition hot.
            let home = (hash % nodes as u64) as usize;
            st.tallies[port * nodes + home] += 1;
            if let Some(sk) = st.sketch[port].as_mut() {
                if sk.observe(hash) {
                    st.splits += 1;
                }
            }
            match st.combine[port].as_mut() {
                Some(buf) => {
                    if buf.fold(hash, key, value) {
                        st.combined += 1;
                    }
                    buf.map.len() >= self.bin_capacity
                }
                None => {
                    // Split/rebalance without combining: route now.
                    let _ = st;
                    self.route_one(port, hash, key, value);
                    return true;
                }
            }
        };
        if needs_flush {
            self.flush_combine(port);
        }
        true
    }

    /// Route one (possibly pre-combined) record on a Hash port: to its
    /// hash home, unless the key is flagged hot or the home partition
    /// is migrated — then scatter it round-robin across all nodes.
    fn route_one(&mut self, port: usize, hash: u64, key: &[u8], value: &[u8]) {
        let edge = self.ports[port].edge;
        let home = (hash % self.nodes as u64) as usize;
        let scatter = {
            let st = self.skew.as_ref().expect("skew state present");
            st.rt.scatter_on(edge)
                && (st.rt.plan.is_migrated(edge, home)
                    || st.sketch[port].as_ref().is_some_and(|s| s.is_hot(hash)))
        };
        if !scatter {
            self.append(port, home, hash, key, value);
            return;
        }
        let dst = {
            let st = self.skew.as_mut().expect("skew state present");
            let d = st.rr % self.nodes;
            st.rr += 1;
            d
        };
        self.append_scatter(port, dst, hash, key, value);
    }

    /// Like [`Self::append`], but into the port's scatter frames; full
    /// frames close as [`BinKind::Scatter`] so the receiver absorbs
    /// them instead of feeding its reduce directly.
    fn append_scatter(&mut self, port: usize, dst: NodeId, hash: u64, key: &[u8], value: &[u8]) {
        let hint = self.frame_capacity_hint();
        let slot = port * self.nodes + dst;
        let full = {
            let st = self.skew.as_mut().expect("skew state present");
            let builder =
                st.scatter_open[slot].get_or_insert_with(|| FrameBuilder::with_capacity(hint));
            builder.push(hash, key, value);
            if builder.len() >= self.bin_capacity {
                st.scatter_open[slot].take()
            } else {
                None
            }
        };
        if let Some(b) = full {
            self.close_bin_kind(dst, self.ports[port].edge, b.freeze(), BinKind::Scatter);
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
            self.captured.push(Record::new(key, value));
        }
    }

    /// Finish the task: flush partial frames and hand everything over.
    #[cfg(test)]
    pub(crate) fn into_parts(self) -> (Vec<(NodeId, FrameBin)>, Vec<Record>) {
        let (bins, captured, _) = self.into_parts_stats(&mut Vec::new());
        (bins, captured)
    }

    /// Finish the task: flush combine buffers, partial frames, and
    /// scatter frames, flush the planner tallies, and hand everything
    /// over with the task's mitigation counters.
    pub(crate) fn into_parts_stats(
        mut self,
        sketches: &mut Vec<KeySketch>,
    ) -> (Vec<(NodeId, FrameBin)>, Vec<Record>, SkewStats) {
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
                let spec = self.ports[port];
                if matches!(spec.exchange, Exchange::Broadcast) {
                    self.broadcast_frame(spec.edge, builder);
                } else {
                    let dst = slot % self.nodes;
                    self.close_bin(dst, spec.edge, builder.freeze());
                }
            }
        }
        let mut stats = SkewStats::default();
        if let Some(mut st) = self.skew.take() {
            let scatter = std::mem::take(&mut st.scatter_open);
            for (slot, builder) in scatter.into_iter().enumerate() {
                if let Some(b) = builder {
                    if b.is_empty() {
                        continue;
                    }
                    let port = slot / self.nodes;
                    let dst = slot % self.nodes;
                    self.close_bin_kind(dst, self.ports[port].edge, b.freeze(), BinKind::Scatter);
                }
            }
            for port in 0..self.ports.len() {
                for home in 0..self.nodes {
                    st.rt.tally_emitted(
                        self.ports[port].edge,
                        home,
                        st.tallies[port * self.nodes + home],
                    );
                }
            }
            stats = SkewStats {
                combined: st.combined,
                splits: st.splits,
            };
            for mut sketch in st.sketch.into_iter().flatten() {
                sketch.clear();
                sketches.push(sketch);
            }
        }
        (self.finished, self.captured, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamr_codec::partition;

    fn out(ports: Vec<PortSpec>, node: NodeId, nodes: usize, cap: usize) -> TaskOutput {
        TaskOutput::new(
            ports.into(),
            node,
            nodes,
            cap,
            true,
            "test".into(),
            0,
            0,
            &Observe::default(),
        )
    }

    #[test]
    fn local_exchange_stays_on_node() {
        let mut o = out(
            vec![PortSpec {
                edge: 7,
                exchange: Exchange::Local,
            }],
            2,
            4,
            100,
        );
        o.emit(0, b"k", b"v");
        let (bins, _) = o.into_parts();
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].0, 2);
        assert_eq!(bins[0].1.edge, 7);
        assert_eq!(bins[0].1.len(), 1);
    }

    #[test]
    fn hash_exchange_routes_by_key() {
        let nodes = 4;
        let mut o = out(
            vec![PortSpec {
                edge: 0,
                exchange: Exchange::Hash,
            }],
            0,
            nodes,
            1000,
        );
        for i in 0..100u64 {
            o.emit(0, format!("key{i}").as_bytes(), b"v");
        }
        let (bins, _) = o.into_parts();
        // Each key must be in the bin for its partition, and the
        // in-frame hash must agree with re-hashing the key.
        for (dst, bin) in &bins {
            for (hash, key, _) in bin.frame.iter() {
                assert_eq!(hash, stable_hash(key));
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
        let mut o = out(
            vec![PortSpec {
                edge: 0,
                exchange: Exchange::KeyNode,
            }],
            0,
            nodes,
            100,
        );
        for node in 0..6u64 {
            o.emit(0, &hamr_codec::Codec::to_bytes(&node), b"v");
        }
        let (bins, _) = o.into_parts();
        for (dst, bin) in &bins {
            for (_, key, _) in bin.frame.iter() {
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
        let mut o = out(
            vec![PortSpec {
                edge: 1,
                exchange: Exchange::Broadcast,
            }],
            0,
            3,
            10,
        );
        o.emit(0, b"k", b"v");
        let (bins, _) = o.into_parts();
        let mut dsts: Vec<_> = bins.iter().map(|(d, _)| *d).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![0, 1, 2]);
    }

    #[test]
    fn broadcast_encodes_once_and_clones() {
        let mut o = out(
            vec![PortSpec {
                edge: 1,
                exchange: Exchange::Broadcast,
            }],
            0,
            3,
            10,
        );
        o.emit(0, b"key", b"value");
        o.emit(0, b"key2", b"value2");
        let (bins, _) = o.into_parts();
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
        let mut o = out(
            vec![PortSpec {
                edge: 0,
                exchange: Exchange::Broadcast,
            }],
            0,
            nodes,
            3,
        );
        for i in 0..7u64 {
            o.emit(0, &i.to_le_bytes(), b"v");
        }
        let (bins, _) = o.into_parts();
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
        let mut o = out(
            vec![PortSpec {
                edge: 0,
                exchange: Exchange::Local,
            }],
            0,
            1,
            3,
        );
        for i in 0..7u64 {
            o.emit(0, &i.to_le_bytes(), b"v");
        }
        let (bins, _) = o.into_parts();
        // 7 records at capacity 3 -> bins of 3, 3, 1.
        let sizes: Vec<_> = bins.iter().map(|(_, b)| b.len()).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn emit_encoded_round_trips_typed_pairs() {
        let mut o = out(
            vec![PortSpec {
                edge: 0,
                exchange: Exchange::Local,
            }],
            0,
            1,
            10,
        );
        o.emit_encoded(0, &"word".to_string(), &7u64);
        let (bins, _) = o.into_parts();
        let (hash, key, value) = bins[0].1.frame.iter().next().unwrap();
        assert_eq!(hash, stable_hash(key));
        let k: String = hamr_codec::Codec::from_bytes(key).unwrap();
        let v: u64 = hamr_codec::Codec::from_bytes(value).unwrap();
        assert_eq!((k.as_str(), v), ("word", 7));
    }

    #[test]
    fn capture_collects_when_enabled() {
        let b = |s: &str| Bytes::copy_from_slice(s.as_bytes());
        let mut o = out(vec![], 0, 1, 10);
        o.capture(b("k"), b("v"));
        let (bins, captured) = o.into_parts();
        assert!(bins.is_empty());
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].key, b("k"));
    }

    #[test]
    fn capture_ignored_when_disabled() {
        let b = |s: &str| Bytes::copy_from_slice(s.as_bytes());
        let mut o = TaskOutput::new(
            Vec::new().into(),
            0,
            1,
            10,
            false,
            "test".into(),
            0,
            0,
            &Observe::default(),
        );
        o.capture(b("k"), b("v"));
        let (_, captured) = o.into_parts();
        assert!(captured.is_empty());
    }

    #[test]
    #[should_panic(expected = "port 1")]
    fn emitting_on_unconnected_port_panics() {
        let mut o = out(
            vec![PortSpec {
                edge: 0,
                exchange: Exchange::Local,
            }],
            0,
            1,
            10,
        );
        o.emit(1, b"k", b"v");
    }

    #[test]
    fn multiple_ports_route_independently() {
        let mut o = out(
            vec![
                PortSpec {
                    edge: 10,
                    exchange: Exchange::Local,
                },
                PortSpec {
                    edge: 11,
                    exchange: Exchange::Broadcast,
                },
            ],
            1,
            2,
            100,
        );
        o.emit(0, b"a", b"1");
        o.emit(1, b"b", b"2");
        let (bins, _) = o.into_parts();
        let edges: std::collections::BTreeSet<_> = bins.iter().map(|(_, b)| b.edge).collect();
        assert_eq!(edges.into_iter().collect::<Vec<_>>(), vec![10, 11]);
        let port1_count: usize = bins
            .iter()
            .filter(|(_, b)| b.edge == 11)
            .map(|(_, b)| b.len())
            .sum();
        assert_eq!(port1_count, 2, "broadcast to both nodes");
    }
}
