//! One task's output: routing emissions into frame bins, which leave
//! as they close, folding them on combining ports, and the drain rule
//! at the task's end.

use super::combine::{CombineBuf, CombineShelf, COMBINE_BUDGET, COMBINE_LOW_WATER};
use super::flow::FlowControl;
use crate::graph::{EdgeId, Exchange, FlowletId};
use crate::plan::{ExecPlan, PortSpec};
use crate::record::FrameBin;
use crate::NodeId;
use hamr_codec::{stable_hash, write_entry, Frame, FrameBuilder};
use hamr_trace::{AuditStage, EventKind, Observe};
use std::sync::Arc;

/// Everything a finished task hands over; its bins left as they closed.
#[derive(Default)]
pub(crate) struct TaskParts {
    /// Records in the bins the task closed.
    pub records_out: u64,
    /// Pairs captured as job output, in frames of at most
    /// `bin_capacity` entries.
    pub captured: Vec<Frame>,
    /// Pinned clones of every frame closed on a cache-filling port,
    /// keyed by (edge, destination node). The clone is a refcount bump
    /// on the frame's `Bytes`, taken *after* combining but *before* the
    /// bin ships, so a later serve replays byte-identical post-combine
    /// frames.
    pub fill: Vec<(EdgeId, NodeId, Frame)>,
    /// Records absorbed by in-node combining (each fold merges two
    /// partials into one, absorbing one record).
    pub combined: u64,
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
    /// The shipped records' tally and pinned fill frames; the captured
    /// output and the fold count are filled in at the end.
    done: TaskParts,
    /// Where a bin goes the moment it closes: shipped, or deferred
    /// behind a full window.
    flow: Arc<FlowControl>,
    capture_enabled: bool,
    /// The open capture frame's entries, and how many (see `capture`).
    captured: Vec<u8>,
    captured_entries: usize,
    /// Reusable encode buffer for typed emits (see `emit_encoded`).
    scratch: Vec<u8>,
    flowlet_name: Arc<str>,
    /// Producing flowlet id + trace lane of the executing thread: the
    /// provenance of every `BinEmitted`.
    flowlet_id: u32,
    lane: u32,
    /// The job's sinks. Its statistics plane folds the frames closed on
    /// sketched ports, using the builder's hash column — pure
    /// observation, never routing.
    obs: Observe,
    /// Per-port combine buffer (`PortSpec::combine`), on loan from the
    /// executing worker's shelf; empty when no port combines.
    combine: Vec<Option<CombineBuf>>,
}

impl TaskOutput {
    /// The output buffer of one task of `flowlet`, run by worker
    /// `lane` on `node`, whose bins leave through `flow`. The executing
    /// worker's combine buffers come off `shelf` and go back in
    /// [`Self::into_parts`] with whatever the windows left in them.
    pub(crate) fn new(
        plan: &ExecPlan,
        flowlet: FlowletId,
        node: NodeId,
        lane: u32,
        obs: &Observe,
        shelf: &CombineShelf,
        flow: &Arc<FlowControl>,
    ) -> Self {
        let fp = &plan.flowlets[flowlet];
        let slots = fp.ports.len() * plan.nodes;
        let borrow = |p: &PortSpec| {
            let combiner = plan.edges[p.edge].combiner.as_ref();
            combiner.filter(|_| p.combine).map(|c| {
                shelf
                    .take(lane as usize, p.edge)
                    .unwrap_or_else(|| CombineBuf::new(Arc::clone(c), plan.nodes))
            })
        };
        let combine = if fp.ports.iter().any(|p| p.combine) {
            fp.ports.iter().map(borrow).collect()
        } else {
            Vec::new()
        };
        TaskOutput {
            ports: Arc::clone(&fp.ports),
            node,
            nodes: plan.nodes,
            bin_capacity: plan.bin_capacity,
            open: (0..slots).map(|_| None).collect(),
            done: TaskParts::default(),
            flow: Arc::clone(flow),
            capture_enabled: fp.capture,
            captured: Vec::new(),
            captured_entries: 0,
            scratch: Vec::new(),
            flowlet_name: Arc::clone(&fp.name),
            flowlet_id: flowlet as u32,
            lane,
            obs: obs.clone(),
            combine,
        }
    }

    /// Freeze a finished builder into a bin for `dst`.
    fn close_bin(&mut self, dst: NodeId, port: usize, builder: FrameBuilder) {
        let (frame, hashes) = builder.finish();
        self.close_frame(dst, port, frame, &hashes);
    }

    /// Close a frozen frame into a bin and hand it to flow control at
    /// once: the bin leaves now, or waits in the deferred queue, not for
    /// the task's end. `hashes` is the frame's builder column, entry
    /// for entry.
    fn close_frame(&mut self, dst: NodeId, port: usize, frame: Frame, hashes: &[u64]) {
        let PortSpec {
            edge, fill, sketch, ..
        } = self.ports[port];
        // Pin a clone for the resident store before the frame moves
        // into the bin.
        if fill {
            self.done.fill.push((edge, dst, frame.clone()));
        }
        if let Some(plane) = self.obs.stats.as_ref().filter(|_| sketch) {
            // The frame's entries beside the producer's hashes for them.
            let hashed = hashes.iter().zip(frame.iter());
            plane.fold_bin(
                edge as u32,
                dst as u32,
                self.flowlet_id,
                &self.flowlet_name,
                self.node as u32,
                hashed.map(|(&h, (k, v))| (h, k, v.len())),
            );
        }
        let bin = FrameBin::new(edge, frame);
        let f = self.flowlet_id as FlowletId;
        record_emitted(&self.obs, self.node, self.lane, f, dst, &bin);
        self.done.records_out += bin.len() as u64;
        self.flow.ship_or_defer(self.lane, f, dst, bin);
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
            self.close_bin(dst, port, full);
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
            Exchange::Hash if spec.combine => self.emit_combined(port, hash, key, value),
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
    /// Each destination's clone is its own bin: the copies travel (and
    /// may stall) independently.
    fn broadcast_frame(&mut self, port: usize, builder: FrameBuilder) {
        let (frame, hashes) = builder.finish();
        for dst in 0..self.nodes {
            self.close_frame(dst, port, frame.clone(), &hashes);
        }
    }

    /// Emit on a Hash port that combines: fold the record into the
    /// port's combine buffer.
    fn emit_combined(&mut self, port: usize, hash: u64, key: &[u8], value: &[u8]) {
        let buf = self.combine[port].as_mut().expect("combining port");
        buf.fold(hash, key, value);
        if buf.bytes > COMBINE_BUDGET {
            // Shed the older half of every destination's partials (the
            // keys folded longest ago are the least likely to recur)
            // and give their bytes back at once.
            self.drain_port(port, |_, _, held| held.div_ceil(2));
            self.combine[port].as_mut().expect("put back").compact();
        }
    }

    /// Route partials out of `port`'s combine buffer, oldest first:
    /// for each destination as many as `quota(self, dst, held there)`
    /// allows. They take the path of any other record — `append`,
    /// `close_frame` — from where the ledger has them.
    fn drain_port(&mut self, port: usize, quota: impl Fn(&Self, NodeId, usize) -> usize) {
        let Some(mut buf) = self.combine[port].take() else {
            return;
        };
        self.drain_buf(port, &mut buf, quota);
        self.combine[port] = Some(buf);
    }

    fn drain_buf(
        &mut self,
        port: usize,
        buf: &mut CombineBuf,
        quota: impl Fn(&Self, NodeId, usize) -> usize,
    ) {
        for dst in 0..self.nodes {
            let n = quota(self, dst, buf.held[dst].live);
            buf.drain(dst, n, |hash, key, value| {
                self.append(port, dst, hash, key, value)
            });
        }
    }

    /// How many more partials `(port, dst)` takes at this task's end:
    /// those that fit in the bins still missing to [`COMBINE_LOW_WATER`]
    /// unacknowledged ones. Every bin this task closed is among them
    /// already — in flight, or deferred behind a window that is full
    /// and so has no room. A window that full keeps its link busy
    /// without us; what stays here goes on folding.
    fn window_room(&self, port: usize, dst: NodeId) -> usize {
        let flow = &self.flow;
        let unacked = flow.inflight(self.ports[port].edge, dst);
        let bins = COMBINE_LOW_WATER.min(flow.window).saturating_sub(unacked);
        let open = self.open[port * self.nodes + dst].as_ref();
        (bins * self.bin_capacity).saturating_sub(open.map_or(0, FrameBuilder::len))
    }

    /// Drain every worker's combine buffers for this flowlet, whole.
    /// The body of the flush task: it runs when no other task of the
    /// flowlet does, so every buffer is on the shelf — this task's own
    /// goes back first, to be treated like the rest.
    pub(crate) fn flush_held(&mut self, shelf: &CombineShelf) {
        self.shelve(shelf);
        for port in 0..self.ports.len() {
            let PortSpec { edge, hold, .. } = self.ports[port];
            if !hold {
                continue;
            }
            for worker in 0..shelf.workers() {
                if let Some(mut buf) = shelf.take(worker, edge) {
                    self.drain_buf(port, &mut buf, |_, _, held| held);
                    // Its flowlet runs no further task: dropped here,
                    // the arena is not resident while the consumer fires.
                    shelf.settle(edge, &mut buf);
                }
            }
        }
    }

    /// Put the borrowed combine buffers back on the worker's shelf,
    /// taking the task's fold count from their tallies.
    fn shelve(&mut self, shelf: &CombineShelf) {
        for (port, buf) in self.combine.iter_mut().enumerate() {
            if let Some(buf) = buf.take() {
                self.done.combined += buf.tally[1];
                shelf.put(self.lane as usize, self.ports[port].edge, buf);
            }
        }
    }

    /// Encode a pair into the reusable scratch buffer and hand its key
    /// and value bytes to `then` — zero allocations per record once the
    /// scratch has grown.
    #[inline]
    fn encoded(
        &mut self,
        key: impl FnOnce(&mut Vec<u8>),
        value: impl FnOnce(&mut Vec<u8>),
        then: impl FnOnce(&mut Self, &[u8], &[u8]),
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        key(&mut scratch);
        let split = scratch.len();
        value(&mut scratch);
        then(self, &scratch[..split], &scratch[split..]);
        self.scratch = scratch;
    }

    /// Encode a typed pair and emit it on `port`.
    #[inline]
    pub(crate) fn emit_encoded<K: hamr_codec::Codec, V: hamr_codec::Codec>(
        &mut self,
        port: usize,
        key: &K,
        value: &V,
    ) {
        self.encoded(
            |buf| key.encode(buf),
            |buf| value.encode(buf),
            |out, k, v| out.emit(port, k, v),
        );
    }

    /// Encode a pair once, each half by its writer, and emit it on
    /// every port.
    #[inline]
    pub(crate) fn emit_all_with(
        &mut self,
        key: impl FnOnce(&mut Vec<u8>),
        value: impl FnOnce(&mut Vec<u8>),
    ) {
        self.encoded(key, value, |out, k, v| {
            for port in 0..out.ports.len() {
                out.emit(port, k, v);
            }
        });
    }

    /// Capture a job-output pair: one frame entry appended to the open
    /// capture frame, which closes, like a port's bin, once it holds
    /// `bin_capacity` entries.
    pub(crate) fn capture(&mut self, key: &[u8], value: &[u8]) {
        if self.capture_enabled {
            write_entry(&mut self.captured, key, value);
            self.captured_entries += 1;
            if self.captured_entries >= self.bin_capacity {
                self.close_capture();
            }
        }
    }

    /// Freeze the open capture frame into the task's output.
    fn close_capture(&mut self) {
        let buf = std::mem::take(&mut self.captured);
        let entries = std::mem::take(&mut self.captured_entries);
        self.done.captured.push(Frame::written(buf, entries));
    }

    /// Encode a typed pair and capture it.
    pub(crate) fn capture_encoded<K: hamr_codec::Codec, V: hamr_codec::Codec>(
        &mut self,
        key: &K,
        value: &V,
    ) {
        if self.capture_enabled {
            self.encoded(
                |buf| key.encode(buf),
                |buf| value.encode(buf),
                |out, k, v| out.capture(k, v),
            );
        }
    }

    /// Finish the task: drain the combine buffers as far as the rule
    /// below says and shelve them, close the partial frames (which ship
    /// like any other), and hand over the rest with the task's fold
    /// count.
    ///
    /// The drain rule. A holding port (`PortSpec::hold`) hands on, per
    /// destination, only the partials that fit under the window's
    /// low-water mark ([`Self::window_room`]): an operator keeps
    /// working on what it holds while its output cannot move, and hands
    /// it on when it can. An idle consumer acknowledges at once, so its
    /// producers drain at every task end; a saturated link leaves the
    /// partials here, where the next task's duplicates fold into them.
    /// A port that does not hold (a streaming job: an epoch's records
    /// must leave ahead of its marker) drains whole.
    pub(crate) fn into_parts(mut self, shelf: &CombineShelf) -> TaskParts {
        // Combine buffers feed the open frames, so they drain first.
        if !self.combine.is_empty() {
            for port in 0..self.ports.len() {
                if self.ports[port].hold {
                    self.drain_port(port, |out, dst, _| out.window_room(port, dst));
                } else {
                    self.drain_port(port, |_, _, held| held);
                }
            }
            self.shelve(shelf);
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
                    self.close_bin(slot % self.nodes, port, builder);
                }
            }
        }
        if self.captured_entries > 0 {
            self.close_capture();
        }
        self.done
    }
}

/// Emit custody of a bin closed on `node` for `dst`: the ledger's
/// `Emit` — tallied whatever the tracer does, the ledger must balance
/// with the trace stream off — and the trace's `BinEmitted`.
pub(crate) fn record_emitted(
    obs: &Observe,
    node: NodeId,
    lane: u32,
    f: FlowletId,
    dst: NodeId,
    bin: &FrameBin,
) {
    bin.audit(&obs.audit, AuditStage::Emit, dst);
    obs.tracer.emit(
        node as u32,
        lane,
        EventKind::BinEmitted {
            flowlet: f as u32,
            edge: bin.edge as u32,
            dst: dst as u32,
            records: bin.len() as u32,
        },
    );
}
